(** Process-wide metrics/telemetry registry: named counters, gauges and
    fixed-bucket histograms behind one mutex-safe surface, with JSON
    export ({!to_json}), a human table ({!render}) and a deterministic
    subset for tests ({!fingerprint}).

    The registry is the single measurement substrate the whole stack
    records into: {!Pool} (tasks scheduled, domains spawned, per-domain
    items, queue drain time), the pipeline stages (per-stage latency
    histograms, retries, ECO iterations), the three caches
    ({!Eval_cache}, {!Disk_cache}, the {!Scl} memo), the batch driver and
    the compile service. It lives in [lib/util] — the bottom of the
    dependency graph — precisely so those low layers can record into it;
    the core layer re-exports it through [--metrics-out] and
    [Service.metrics].

    {2 Determinism rules}

    Metric {e values} split into two classes, chosen at registration:

    - {e deterministic} ([~det:true], the default): invariant across job
      counts, simulation engines and machine load — stage execution
      counts, disk-cache hit/miss/store counts, batch item outcomes,
      sign-off MAC counts. These enter the {!fingerprint}.
    - {e nondeterministic} ([~det:false]): anything that legitimately
      varies run-to-run — pool domain counts (jobs-dependent by
      definition), the racy in-memory cache counters (two domains racing
      a cold key both count a miss), wall-clock-derived values. These
      appear in {!to_json}/{!render} but never in the fingerprint.

    Histograms straddle the line: latency {e distributions} are
    nondeterministic, but the {e observation count} of a deterministic
    instrument (how many times stage X ran) is not — so the fingerprint
    renders a deterministic histogram as its count alone, buckets and
    sums excluded. This mirrors the {!Trace.fingerprint} discipline
    (same table, wall-clock column dropped).

    {2 Concurrency}

    Registration is guarded by the registry mutex; counters are
    [Atomic]s; each gauge and histogram carries its own mutex. Any
    number of pool domains may record concurrently. {!set_enabled}
    [false] turns every record operation into a cheap no-op — the knob
    the [metrics_overhead] bench section uses to price instrumentation.

    {2 Scoped instruments}

    A cache or service instance that must answer "how many hits did
    {e I} serve?" takes a {!scoped} counter (or {!scoped_histogram}) of
    the registered instrument instead of keeping a private tally. The
    scoped instrument is unregistered — it never appears in {!to_json},
    {!render} or {!fingerprint}, and {!reset} does not zero it — and
    every [add]/[observe] on it also lands in its parent, so the
    registry sees exactly the increments it would see without the
    instance view. Each count is therefore recorded at one site.
    Because they are record operations like any other, scoped
    instruments are silenced by {!set_enabled} [false] too. *)

type counter = {
  c_name : string;
  c_det : bool;
  c_value : int Atomic.t;
  c_parent : counter option;  (** the registered instrument of a {!scoped} one *)
}

type gauge = {
  g_name : string;
  g_det : bool;
  g_lock : Mutex.t;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_det : bool;
  bounds : float array;  (** strictly increasing bucket upper bounds *)
  h_lock : Mutex.t;
  counts : int array;  (** [Array.length bounds + 1]: last is overflow *)
  mutable h_sum : float;
  mutable h_count : int;
  h_parent : histogram option;
      (** the registered instrument of a {!scoped_histogram} *)
}

type instrument = C of counter | G of gauge | H of histogram

type t = { lock : Mutex.t; tbl : (string, instrument) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }

(** The process-wide registry every instrumented module records into by
    default. One per process, like the instrumented resources (domain
    pool, caches) themselves; tests that need isolation either build
    their own registry or {!reset} this one. *)
let global = create ()

let enabled = Atomic.make true

(** [set_enabled b] — globally enable/disable recording. Registration
    still works when disabled; [incr]/[observe]/[set_gauge] become
    no-ops, on scoped instruments as on registered ones. *)
let set_enabled b = Atomic.set enabled b

(* Default latency buckets (milliseconds): log-ish spacing from 10 us to
   30 s, wide enough for a cache probe and a full multi-attempt compile
   alike. *)
let latency_ms_buckets =
  [| 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0;
     3000.0; 10000.0; 30000.0 |]

(* Default size buckets (items, lanes, entries): powers of two. *)
let size_buckets =
  [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0; 512.0; 1024.0;
     4096.0 |]

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"

let register (reg : t) name (build : unit -> instrument)
    (select : instrument -> 'a option) : 'a =
  Mutex.protect reg.lock (fun () ->
      let inst =
        match Hashtbl.find_opt reg.tbl name with
        | Some i -> i
        | None ->
            let i = build () in
            Hashtbl.add reg.tbl name i;
            i
      in
      match select inst with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a %s" name
               (kind_name inst)))

(** [counter ?registry ?det name] — get-or-create the named counter.
    Re-registration returns the existing instrument (the [det] flag of
    the first registration wins); registering the name as a different
    kind raises [Invalid_argument]. *)
let counter ?(registry = global) ?(det = true) name : counter =
  register registry name
    (fun () ->
      C { c_name = name; c_det = det; c_value = Atomic.make 0; c_parent = None })
    (function C c -> Some c | _ -> None)

(** [scoped parent] — a fresh, unregistered counter that starts at zero
    and forwards every increment to [parent]: one instance's view of a
    registry counter. *)
let scoped (parent : counter) : counter =
  { parent with c_value = Atomic.make 0; c_parent = Some parent }

let rec bump (c : counter) n =
  ignore (Atomic.fetch_and_add c.c_value n);
  match c.c_parent with Some p -> bump p n | None -> ()

let add (c : counter) n = if n <> 0 && Atomic.get enabled then bump c n

let incr (c : counter) = add c 1
let counter_value (c : counter) = Atomic.get c.c_value

(** [gauge ?registry ?det name] — get-or-create the named gauge (a
    last-write-wins float, e.g. a pool width or an entry count). *)
let gauge ?(registry = global) ?(det = true) name : gauge =
  register registry name
    (fun () ->
      G { g_name = name; g_det = det; g_lock = Mutex.create (); g_value = 0.0 })
    (function G g -> Some g | _ -> None)

let set_gauge (g : gauge) v =
  if Atomic.get enabled then
    Mutex.protect g.g_lock (fun () -> g.g_value <- v)

let gauge_value (g : gauge) = Mutex.protect g.g_lock (fun () -> g.g_value)

(** [histogram ?registry ?det ?buckets name] — get-or-create the named
    fixed-bucket histogram. [buckets] are strictly increasing upper
    bounds (default {!latency_ms_buckets}); one implicit overflow bucket
    catches everything above the last bound. *)
let histogram ?(registry = global) ?(det = true) ?(buckets = latency_ms_buckets)
    name : histogram =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    buckets;
  register registry name
    (fun () ->
      H
        {
          h_name = name;
          h_det = det;
          bounds = Array.copy buckets;
          h_lock = Mutex.create ();
          counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.0;
          h_count = 0;
          h_parent = None;
        })
    (function H h -> Some h | _ -> None)

(** [scoped_histogram parent] — the histogram counterpart of {!scoped}:
    same buckets, empty, unregistered, and every observation also lands
    in [parent]. *)
let scoped_histogram (parent : histogram) : histogram =
  {
    parent with
    h_lock = Mutex.create ();
    counts = Array.make (Array.length parent.counts) 0;
    h_sum = 0.0;
    h_count = 0;
    h_parent = Some parent;
  }

let bucket_index (h : histogram) v =
  let n = Array.length h.bounds in
  let rec go i = if i >= n then n else if v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let rec record (h : histogram) v =
  Mutex.protect h.h_lock (fun () ->
      let i = bucket_index h v in
      h.counts.(i) <- h.counts.(i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1);
  match h.h_parent with Some p -> record p v | None -> ()

let observe (h : histogram) v = if Atomic.get enabled then record h v

let histogram_count (h : histogram) =
  Mutex.protect h.h_lock (fun () -> h.h_count)

let histogram_sum (h : histogram) = Mutex.protect h.h_lock (fun () -> h.h_sum)

(* Quantile over the bucketed distribution, linearly interpolated inside
   the target bucket (the standard Prometheus estimate). The overflow
   bucket has no upper bound, so it reports the last finite bound — a
   floor, not a guess. *)
let quantile_locked (h : histogram) q =
  if h.h_count = 0 then 0.0
  else begin
    let rank = q *. float_of_int h.h_count in
    let n = Array.length h.bounds in
    let rec go i cum =
      if i > n then h.bounds.(n - 1)
      else
        let cum' = cum + h.counts.(i) in
        if float_of_int cum' >= rank && h.counts.(i) > 0 then
          if i = n then h.bounds.(n - 1)
          else
            let lower = if i = 0 then 0.0 else h.bounds.(i - 1) in
            let frac = (rank -. float_of_int cum) /. float_of_int h.counts.(i) in
            lower +. (frac *. (h.bounds.(i) -. lower))
        else go (i + 1) cum'
    in
    go 0 0
  end

(** [quantile h q] — the [q]-quantile ([0..1]) estimate: p50 is
    [quantile h 0.5]. Linear interpolation within the target bucket;
    values in the overflow bucket report the last finite bound. *)
let quantile (h : histogram) q = Mutex.protect h.h_lock (fun () -> quantile_locked h q)

(* ------------------------------------------------------------------ *)
(* Reset and snapshot                                                  *)
(* ------------------------------------------------------------------ *)

(** [reset ?registry ()] — zero every registered instrument's value,
    keeping the registrations. Tests use this to scope the process-wide
    registry to one workload run. Scoped instruments are not registered,
    so an instance's own view survives a reset. *)
let reset ?(registry = global) () =
  Mutex.protect registry.lock (fun () ->
      Hashtbl.iter
        (fun _ inst ->
          match inst with
          | C c -> Atomic.set c.c_value 0
          | G g -> Mutex.protect g.g_lock (fun () -> g.g_value <- 0.0)
          | H h ->
              Mutex.protect h.h_lock (fun () ->
                  Array.fill h.counts 0 (Array.length h.counts) 0;
                  h.h_sum <- 0.0;
                  h.h_count <- 0))
        registry.tbl)

(* Name-sorted instruments: export order is deterministic no matter the
   registration (module initialization) order. *)
let sorted_instruments (registry : t) : instrument list =
  let all =
    Mutex.protect registry.lock (fun () ->
        Hashtbl.fold (fun _ inst acc -> inst :: acc) registry.tbl [])
  in
  let name = function C c -> c.c_name | G g -> g.g_name | H h -> h.h_name in
  List.sort (fun a b -> compare (name a) (name b)) all

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.17g round-trips doubles; JSON has no Infinity/NaN literals, so
   clamp those to null (they never arise from real observations). *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(** [to_json ?registry ()] — the full registry as one JSON document:
    every counter and gauge with its value and determinism class, every
    histogram with count, sum, p50/p90/p99 and per-bucket counts. *)
let to_json ?(registry = global) () : string =
  let insts = sorted_instruments registry in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"syndcim-metrics/1\",\n";
  let section title f items =
    Buffer.add_string b (Printf.sprintf "  \"%s\": [" title);
    List.iteri
      (fun i x ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        Buffer.add_string b (f x))
      items;
    Buffer.add_string b (if items = [] then "]" else "\n  ]")
  in
  let counters = List.filter_map (function C c -> Some c | _ -> None) insts in
  let gauges = List.filter_map (function G g -> Some g | _ -> None) insts in
  let hists = List.filter_map (function H h -> Some h | _ -> None) insts in
  section "counters"
    (fun (c : counter) ->
      Printf.sprintf "    {\"name\": \"%s\", \"value\": %d, \"det\": %b}"
        (json_escape c.c_name) (counter_value c) c.c_det)
    counters;
  Buffer.add_string b ",\n";
  section "gauges"
    (fun (g : gauge) ->
      Printf.sprintf "    {\"name\": \"%s\", \"value\": %s, \"det\": %b}"
        (json_escape g.g_name) (json_float (gauge_value g)) g.g_det)
    gauges;
  Buffer.add_string b ",\n";
  section "histograms"
    (fun (h : histogram) ->
      Mutex.protect h.h_lock (fun () ->
          let buckets =
            String.concat ", "
              (List.init
                 (Array.length h.counts)
                 (fun i ->
                   let le =
                     if i < Array.length h.bounds then
                       json_float h.bounds.(i)
                     else "\"+inf\""
                   in
                   Printf.sprintf "{\"le\": %s, \"count\": %d}" le h.counts.(i)))
          in
          Printf.sprintf
            "    {\"name\": \"%s\", \"det\": %b, \"count\": %d, \"sum\": %s, \
             \"p50\": %s, \"p90\": %s, \"p99\": %s, \"buckets\": [%s]}"
            (json_escape h.h_name) h.h_det h.h_count (json_float h.h_sum)
            (json_float (quantile_locked h 0.5))
            (json_float (quantile_locked h 0.9))
            (json_float (quantile_locked h 0.99))
            buckets))
    hists;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(** [render ?registry ()] — the one-page human table: counters and
    gauges (name, value, class), then histograms (count, p50/p90/p99,
    sum). The [--metrics] CLI flag prints this. *)
let render ?(registry = global) () : string =
  let insts = sorted_instruments registry in
  let counters = List.filter_map (function C c -> Some c | _ -> None) insts in
  let gauges = List.filter_map (function G g -> Some g | _ -> None) insts in
  let hists = List.filter_map (function H h -> Some h | _ -> None) insts in
  let b = Buffer.create 1024 in
  let det_cell d = if d then "det" else "nondet" in
  if counters <> [] || gauges <> [] then begin
    let rows =
      List.map
        (fun (c : counter) ->
          [ c.c_name; string_of_int (counter_value c); det_cell c.c_det ])
        counters
      @ List.map
          (fun (g : gauge) ->
            [ g.g_name; Printf.sprintf "%g" (gauge_value g); det_cell g.g_det ])
          gauges
    in
    Buffer.add_string b
      (Table.render (Table.make ~header:[ "metric"; "value"; "class" ] rows));
    Buffer.add_char b '\n'
  end;
  if hists <> [] then begin
    let rows =
      List.map
        (fun (h : histogram) ->
          Mutex.protect h.h_lock (fun () ->
              [
                h.h_name;
                string_of_int h.h_count;
                Printf.sprintf "%.3g" (quantile_locked h 0.5);
                Printf.sprintf "%.3g" (quantile_locked h 0.9);
                Printf.sprintf "%.3g" (quantile_locked h 0.99);
                Printf.sprintf "%.3g" h.h_sum;
                det_cell h.h_det;
              ]))
        hists
    in
    Buffer.add_string b
      (Table.render
         (Table.make
            ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "sum"; "class" ]
            rows));
    Buffer.add_char b '\n'
  end;
  if Buffer.length b = 0 then "(no metrics recorded)\n" else Buffer.contents b

(** [fingerprint ?registry ()] — the deterministic subset, rendered as
    sorted [kind name = value] lines: deterministic counters and gauges
    with their values, deterministic histograms as their observation
    count only (no buckets, no sums — those carry wall-clock). Two runs
    of the same workload at any job count and any simulation engine must
    produce byte-identical fingerprints; nondeterministic instruments
    never appear. *)
let fingerprint ?(registry = global) () : string =
  let lines =
    List.filter_map
      (function
        | C c when c.c_det ->
            Some (Printf.sprintf "counter %s = %d" c.c_name (counter_value c))
        | G g when g.g_det ->
            Some (Printf.sprintf "gauge %s = %.17g" g.g_name (gauge_value g))
        | H h when h.h_det ->
            Some (Printf.sprintf "hist %s count = %d" h.h_name (histogram_count h))
        | C _ | G _ | H _ -> None)
      (sorted_instruments registry)
  in
  String.concat "\n" lines ^ "\n"
