(** Batch compilation driver: compile a manifest of specifications
    across the {!Pool} domain pool, backed by the persistent
    content-addressed compile cache ({!Disk_cache}).

    A manifest is a text file of spec lines — whitespace-separated
    [key=value] fields in any order, [#] comments and blank lines
    ignored:

    {v
      rows=16 cols=16 mcr=1 iprec=int8 wprec=int8 freq_mhz=600
      rows=64 cols=64 mcr=2 freq_mhz=800 prefer=power   # fig8-ish
    v}

    Fields not given take the same defaults as [syndcim compile]. Because
    a parsed line canonicalizes into a {!Spec.t} before keying, two
    manifests that spell the same spec with different field order or
    spacing hit the same cache entry.

    {!run} schedules the compilations over the domain pool (each spec is
    independent; the subcircuit library and disk cache are both safe to
    share), counts cache hits/misses/corruption repairs, and keeps every
    per-spec result — including failures, which are carried as {!Diag.t}
    values rather than aborting the batch. {!manifest_json} is the
    machine-readable record (status, PPA, cache participation, wall time
    per spec); {!render_ppa} is the deterministic PPA view used by the
    determinism tests and CI (full-precision floats, no wall clock);
    {!render_table} is the human summary. *)

let stage = "batch"

(* ------------------------------------------------------------------ *)
(* Spec-line parsing                                                   *)
(* ------------------------------------------------------------------ *)

let precision_of_string s : (Precision.t, string) Stdlib.result =
  match String.lowercase_ascii s with
  | "int1" -> Ok Precision.int1
  | "int2" -> Ok Precision.int2
  | "int4" -> Ok Precision.int4
  | "int8" -> Ok Precision.int8
  | "fp4" -> Ok Precision.fp4
  | "fp8" -> Ok Precision.fp8
  | "bf16" -> Ok Precision.bf16
  | other -> Error (Printf.sprintf "unknown precision %S" other)

let preference_of_string s : (Spec.preference, string) Stdlib.result =
  match String.lowercase_ascii s with
  | "power" -> Ok Spec.Prefer_power
  | "area" -> Ok Spec.Prefer_area
  | "performance" | "perf" -> Ok Spec.Prefer_performance
  | "balanced" -> Ok Spec.Balanced
  | other -> Error (Printf.sprintf "unknown preference %S" other)

(** The spec every manifest line, and [syndcim compile], starts from
    before its fields apply. *)
let default_spec : Spec.t =
  {
    Spec.rows = 64;
    cols = 64;
    mcr = 2;
    input_prec = Precision.int8;
    weight_prec = Precision.int8;
    mac_freq_hz = 800e6;
    weight_update_freq_hz = 800e6;
    vdd = 0.9;
    preference = Spec.Balanced;
  }

(** [parse_spec_line line] — one manifest line to a {!Spec.t}. Fields may
    appear in any order, separated by any whitespace; duplicates are an
    error (a manifest that says [rows=8 rows=16] is a typo, not a
    preference). *)
let parse_spec_line (line : string) : (Spec.t, string) Stdlib.result =
  let tokens =
    String.split_on_char ' '
      (String.map (function '\t' | '\r' -> ' ' | c -> c) line)
    |> List.filter (fun t -> t <> "")
  in
  let exception Bad of string in
  let seen = Hashtbl.create 8 in
  try
    let spec =
      List.fold_left
        (fun spec tok ->
          match String.index_opt tok '=' with
          | None -> raise (Bad (Printf.sprintf "expected key=value, got %S" tok))
          | Some i ->
              let key = String.sub tok 0 i in
              let v = String.sub tok (i + 1) (String.length tok - i - 1) in
              if Hashtbl.mem seen key then
                raise (Bad (Printf.sprintf "duplicate field %S" key));
              Hashtbl.add seen key ();
              let int () =
                match int_of_string_opt v with
                | Some n -> n
                | None -> raise (Bad (Printf.sprintf "bad integer %S for %s" v key))
              in
              let flt () =
                match float_of_string_opt v with
                | Some f -> f
                | None -> raise (Bad (Printf.sprintf "bad number %S for %s" v key))
              in
              let prec () =
                match precision_of_string v with
                | Ok p -> p
                | Error e -> raise (Bad e)
              in
              (match key with
              | "rows" -> { spec with Spec.rows = int () }
              | "cols" -> { spec with Spec.cols = int () }
              | "mcr" -> { spec with Spec.mcr = int () }
              | "iprec" | "input" -> { spec with Spec.input_prec = prec () }
              | "wprec" | "weight" -> { spec with Spec.weight_prec = prec () }
              | "freq_mhz" -> { spec with Spec.mac_freq_hz = flt () *. 1e6 }
              | "wupd_mhz" ->
                  { spec with Spec.weight_update_freq_hz = flt () *. 1e6 }
              | "vdd" -> { spec with Spec.vdd = flt () }
              | "prefer" -> (
                  match preference_of_string v with
                  | Ok p -> { spec with Spec.preference = p }
                  | Error e -> raise (Bad e))
              | other -> raise (Bad (Printf.sprintf "unknown field %S" other))))
        default_spec tokens
    in
    if tokens = [] then Error "empty spec line" else Ok spec
  with Bad msg -> Error msg

(** [render_spec_line s] — a manifest line that parses back to [s]
    exactly ([%h] floats round-trip). *)
let render_spec_line (s : Spec.t) : string =
  Printf.sprintf
    "rows=%d cols=%d mcr=%d iprec=%s wprec=%s freq_mhz=%h wupd_mhz=%h vdd=%h prefer=%s"
    s.Spec.rows s.Spec.cols s.Spec.mcr
    (String.lowercase_ascii (Precision.name s.Spec.input_prec))
    (String.lowercase_ascii (Precision.name s.Spec.weight_prec))
    (s.Spec.mac_freq_hz /. 1e6)
    (s.Spec.weight_update_freq_hz /. 1e6)
    s.Spec.vdd
    (Spec.preference_name s.Spec.preference)

(** [parse_manifest text] — every spec line of a manifest, or the first
    malformed line as a one-line diagnostic. An empty manifest (no spec
    lines at all) is an error: silently compiling nothing hides a wrong
    path or a glob that matched nothing. *)
let parse_manifest (text : string) : (Spec.t list, Diag.t) Stdlib.result =
  let lines = String.split_on_char '\n' text in
  (* A CRLF-edited manifest leaves '\r' on every line after the '\n'
     split; strip it explicitly so the last field of each line never
     carries a carriage return into the key=value parse. *)
  let strip_cr line =
    let len = String.length line in
    if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1)
    else line
  in
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let t = String.trim (strip_cr line) in
        if t = "" || t.[0] = '#' then go acc (n + 1) rest
        else (
          match parse_spec_line t with
          | Ok spec -> go (spec :: acc) (n + 1) rest
          | Error reason ->
              Error
                (Diag.error ~stage
                   ~payload:[ ("line", string_of_int n); ("text", t) ]
                   (Printf.sprintf "manifest line %d: %s" n reason)))
  in
  match go [] 1 lines with
  | Error _ as e -> e
  | Ok [] -> Error (Diag.error ~stage "empty batch manifest (no spec lines)")
  | Ok specs -> Ok specs

(** [load_manifest path] — {!parse_manifest} over a file. *)
let load_manifest (path : string) : (Spec.t list, Diag.t) Stdlib.result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg ->
      Error (Diag.error ~stage ~payload:[ ("path", path) ] msg)
  | text -> (
      match parse_manifest text with
      | Error d -> Error { d with Diag.payload = ("path", path) :: d.Diag.payload }
      | ok -> ok)

(** [validate_jobs j] — [--jobs 0] or a negative pool width is a user
    error, not a degenerate pool. *)
let validate_jobs (j : int) : (int, Diag.t) Stdlib.result =
  if j >= 1 then Ok j
  else
    Error
      (Diag.error ~stage
         ~payload:[ ("jobs", string_of_int j) ]
         "jobs must be >= 1")

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type item = {
  index : int;  (** position in the manifest, 0-based *)
  spec : Spec.t;
  outcome : (Pipeline.summary, Diag.t) Stdlib.result;
  wall_s : float;
}

type result = {
  items : item list;  (** in manifest order *)
  hits : int;
  misses : int;  (** compiled because no entry existed *)
  corrupt : int;  (** compiled because the entry failed integrity checks *)
  uncached : int;  (** compiled with no cache attached *)
  failed : int;
  wall_s : float;  (** whole-batch wall clock *)
  warnings : Diag.t list;  (** one per replaced corrupt entry *)
}

(** [run ?jobs ?cache ?trace ctx specs] — compile every spec, fanned out
    over the domain pool. Jobs and compile cache default to the
    context's values. Per-spec failures become [Error] items; the batch
    itself always completes, and corrupt-entry repairs come back as
    [warnings]. Each spec records its stage rows into a private trace,
    merged into [trace] in manifest order after the pool joins — so the
    trace (and its fingerprint) is independent of which domain compiled
    what. *)
let run ?jobs ?cache ?trace (ctx : Ctx.t) (specs : Spec.t list) : result =
  let t0 = Unix.gettimeofday () in
  let jobs = match jobs with Some j -> Some j | None -> Ctx.jobs ctx in
  let cache = match cache with Some c -> Some c | None -> Ctx.cache ctx in
  (* detach the context's own cache so the per-call value above is the
     single source of truth inside the fan-out *)
  let call_ctx = Ctx.without_cache ctx in
  let compiled =
    Pool.parallel_map ?jobs
      (fun (index, spec) ->
        let tr = Option.map (fun _ -> Trace.create ()) trace in
        let w0 = Unix.gettimeofday () in
        let outcome = Pipeline.run_cached ?trace:tr ?cache call_ctx spec in
        let wall_s = Unix.gettimeofday () -. w0 in
        ({ index; spec; outcome; wall_s }, tr))
      (List.mapi (fun i s -> (i, s)) specs)
  in
  (match trace with
  | None -> ()
  | Some t ->
      List.iter
        (fun (_, tr) ->
          Option.iter (fun tr -> List.iter (Trace.add t) (Trace.rows tr)) tr)
        compiled);
  let items = List.map fst compiled in
  let hits = ref 0
  and misses = ref 0
  and corrupt = ref 0
  and uncached = ref 0
  and failed = ref 0
  and warnings = ref [] in
  List.iter
    (fun it ->
      match it.outcome with
      | Error _ -> incr failed
      | Ok s -> (
          match s.Pipeline.sum_cache with
          | Pipeline.Cache_hit -> incr hits
          | Pipeline.Cache_miss -> incr misses
          | Pipeline.Cache_off -> incr uncached
          | Pipeline.Cache_corrupt reason ->
              incr corrupt;
              warnings :=
                Diag.warning ~stage ~spec:it.spec
                  ~payload:[ ("reason", reason) ]
                  "corrupt cache entry replaced (recompiled)"
                :: !warnings))
    items;
  let warnings = List.rev !warnings in
  (* Outcome counts depend only on the manifest and the cache state, not
     on scheduling — all deterministic. *)
  Metrics.incr (Metrics.counter "batch.runs");
  Metrics.add (Metrics.counter "batch.items") (List.length items);
  Metrics.add (Metrics.counter "batch.items_failed") !failed;
  Metrics.add (Metrics.counter "batch.cache_hits") !hits;
  Metrics.add (Metrics.counter "batch.cache_misses") !misses;
  Metrics.add (Metrics.counter "batch.cache_corrupt") !corrupt;
  Metrics.add (Metrics.counter "batch.uncached") !uncached;
  {
    items;
    hits = !hits;
    misses = !misses;
    corrupt = !corrupt;
    uncached = !uncached;
    failed = !failed;
    wall_s = Unix.gettimeofday () -. t0;
    warnings;
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let cache_word (s : Pipeline.summary) =
  match s.Pipeline.sum_cache with
  | Pipeline.Cache_off -> "off"
  | Pipeline.Cache_hit -> "hit"
  | Pipeline.Cache_miss -> "miss"
  | Pipeline.Cache_corrupt _ -> "corrupt"

(** [render_table r] — the human summary (wall clock included, so not a
    determinism artifact; diff {!render_ppa} for that). *)
let render_table (r : result) : string =
  let row (it : item) =
    match it.outcome with
    | Ok s ->
        let m = s.Pipeline.sum_metrics in
        [
          string_of_int it.index;
          Spec.describe it.spec;
          (if s.Pipeline.sum_timing_closed then "closed" else "MISSED");
          cache_word s;
          Table.f ~digits:1 m.Pipeline.crit_ps;
          Table.f ~digits:3 m.Pipeline.fmax_ghz;
          Table.f (m.Pipeline.power_w *. 1e3);
          Table.f ~digits:4 m.Pipeline.area_mm2;
          Table.f ~digits:4 m.Pipeline.tops;
          Printf.sprintf "%.3f" it.wall_s;
        ]
    | Error d ->
        [
          string_of_int it.index;
          Spec.describe it.spec;
          Printf.sprintf "FAILED[%s]" (Diag.stage d);
          "-"; "-"; "-"; "-"; "-"; "-";
          Printf.sprintf "%.3f" it.wall_s;
        ]
  in
  Table.render
    (Table.make
       ~header:
         [
           "#"; "spec"; "timing"; "cache"; "crit (ps)"; "fmax (GHz)";
           "power (mW)"; "area (mm2)"; "TOPS"; "wall (s)";
         ]
       (List.map row r.items))
  ^ "\n"

(** One-line batch summary. *)
let describe (r : result) : string =
  Printf.sprintf
    "batch: %d spec(s) — %d cache hit(s), %d compiled (%d corrupt entr%s \
     replaced, %d uncached), %d failed, %.2f s"
    (List.length r.items) r.hits
    (r.misses + r.corrupt + r.uncached)
    r.corrupt
    (if r.corrupt = 1 then "y" else "ies")
    r.uncached r.failed r.wall_s

(** [render_ppa r] — the deterministic per-spec PPA record: every float
    at full precision ([%.17g] round-trips doubles exactly), no wall
    clock, no cache state. Cold, warm, [--no-cache] and any job count
    must all render byte-identical text for the same manifest. *)
let render_ppa (r : result) : string =
  let line (it : item) =
    match it.outcome with
    | Ok s ->
        let m = s.Pipeline.sum_metrics in
        Printf.sprintf
          "%d | %s | crit_ps=%.17g fmax_ghz=%.17g power_w=%.17g \
           area_mm2=%.17g tops=%.17g tops_per_w=%.17g tops_per_mm2=%.17g \
           ops_norm=%.17g closed=%b insts=%d nets=%d attempts=%d boost=%.17g"
          it.index (Spec.describe it.spec) m.Pipeline.crit_ps
          m.Pipeline.fmax_ghz m.Pipeline.power_w m.Pipeline.area_mm2
          m.Pipeline.tops m.Pipeline.tops_per_w m.Pipeline.tops_per_mm2
          m.Pipeline.ops_norm s.Pipeline.sum_timing_closed
          s.Pipeline.sum_insts s.Pipeline.sum_nets s.Pipeline.sum_attempts
          s.Pipeline.sum_boost
    | Error d ->
        Printf.sprintf "%d | %s | FAILED %s" it.index (Spec.describe it.spec)
          (Diag.to_string d)
  in
  String.concat "\n" (List.map line r.items) ^ "\n"

(** [manifest_json r] — the machine-readable batch manifest: per-spec
    status, cache participation, wall time and full-precision PPA. *)
let manifest_json (r : result) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"syndcim-batch-manifest/1\",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"specs\": %d,\n  \"hits\": %d,\n  \"misses\": %d,\n  \
        \"corrupt\": %d,\n  \"uncached\": %d,\n  \"failed\": %d,\n  \
        \"total_wall_s\": %.6f,\n"
       (List.length r.items) r.hits r.misses r.corrupt r.uncached r.failed
       r.wall_s);
  Buffer.add_string b "  \"items\": [\n";
  let n = List.length r.items in
  List.iteri
    (fun i (it : item) ->
      let comma = if i = n - 1 then "" else "," in
      (match it.outcome with
      | Ok s ->
          let m = s.Pipeline.sum_metrics in
          Buffer.add_string b
            (Printf.sprintf
               "    { \"index\": %d, \"spec\": \"%s\", \"status\": \"ok\", \
                \"cache\": \"%s\", \"timing_closed\": %b, \"attempts\": %d, \
                \"boost\": %.17g, \"insts\": %d, \"nets\": %d, \"metrics\": \
                { \"crit_ps\": %.17g, \"fmax_ghz\": %.17g, \"power_w\": \
                %.17g, \"area_mm2\": %.17g, \"tops\": %.17g, \"tops_per_w\": \
                %.17g, \"tops_per_mm2\": %.17g, \"ops_norm\": %.17g }, \
                \"wall_s\": %.6f }"
               it.index
               (Metrics.json_escape (Spec.describe it.spec))
               (cache_word s) s.Pipeline.sum_timing_closed
               s.Pipeline.sum_attempts s.Pipeline.sum_boost
               s.Pipeline.sum_insts s.Pipeline.sum_nets m.Pipeline.crit_ps
               m.Pipeline.fmax_ghz m.Pipeline.power_w m.Pipeline.area_mm2
               m.Pipeline.tops m.Pipeline.tops_per_w m.Pipeline.tops_per_mm2
               m.Pipeline.ops_norm it.wall_s)
      | Error d ->
          Buffer.add_string b
            (Printf.sprintf
               "    { \"index\": %d, \"spec\": \"%s\", \"status\": \
                \"failed\", \"diagnostic\": \"%s\", \"wall_s\": %.6f }"
               it.index
               (Metrics.json_escape (Spec.describe it.spec))
               (Metrics.json_escape (Diag.to_string d))
               it.wall_s));
      Buffer.add_string b (comma ^ "\n"))
    r.items;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
