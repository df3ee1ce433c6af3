(** Persistent, content-addressed compile cache.

    One entry per compiled specification, keyed by a fingerprint of
    everything that determines the compilation result:

    - the {e canonicalized specification}: every {!Spec.t} field rendered
      in a fixed order with hex ([%h]) floats, so two manifest lines that
      describe the same macro with different field ordering or whitespace
      hash identically, while any single-field perturbation changes the
      key — the cache can never serve a false hit for a different spec;
    - the {e cell-library characterization hash}: a digest over every
      (kind, drive) parameter record plus the process node, so editing a
      single timing/power/area number invalidates every entry cleanly;
    - an {e algorithm version tag} supplied by the caller (the searcher
      version plus the placement style and retry policy the pipeline
      compiles with, [Pipeline.cache_algo_tag]), so a semantic change to
      the search can never resurrect stale results.

    Values carry the stage artifacts a batch report needs without
    re-running the pipeline: final metrics, netlist shape, attempt count
    and boost. Floats round-trip exactly ([%h] in, [float_of_string]
    out), so a cache hit reproduces the cold run bit for bit.

    The store is a flat directory of [<key>.entry] files. Writes go
    through a temp file in the same directory followed by an atomic
    [rename], so concurrent pool domains sharing one store can only ever
    observe a complete entry. Loads are corruption-tolerant: every entry
    ends in a whole-body checksum, and a truncated, bit-flipped or
    otherwise unparseable entry is reported as {!Corrupt} — a miss that
    recomputes, never an exception. *)

(** Bump when the entry serialization changes shape: old entries then
    fail the magic check and are recomputed. *)
let format_version = "syndcim-cache-entry v1"

(* ------------------------------------------------------------------ *)
(* Key construction                                                    *)
(* ------------------------------------------------------------------ *)

(** [canonical_spec s] — the fixed-order, whitespace-free rendering of
    every spec field the compiler reads. Unlike {!Eval_cache.key}, the
    preference is included: the fine-tuning step steers which design a
    spec compiles to. *)
let canonical_spec (s : Spec.t) : string =
  Printf.sprintf "rows=%d;cols=%d;mcr=%d;iprec=%s;wprec=%s;freq=%h;wupd=%h;vdd=%h;pref=%s"
    s.Spec.rows s.Spec.cols s.Spec.mcr
    (Precision.name s.Spec.input_prec)
    (Precision.name s.Spec.weight_prec)
    s.Spec.mac_freq_hz s.Spec.weight_update_freq_hz s.Spec.vdd
    (Spec.preference_name s.Spec.preference)

let drive_name = function Cell.X1 -> "X1" | Cell.X2 -> "X2" | Cell.X4 -> "X4"

(* The digest over the rendered characterization: every (kind, drive)
   parameter record at [%h] plus the process-node constants. *)
let digest_library (lib : Library.t) : string =
  let b = Buffer.create 4096 in
  let node = lib.Library.node in
  Buffer.add_string b
    (Printf.sprintf "node=%s;%h;%h;%h;%h;%h;%h;%h\n" node.Node.name
       node.Node.feature_nm node.Node.vdd_nominal node.Node.vth
       node.Node.fo4_ps node.Node.gate_cap_ff_per_um
       node.Node.wire_cap_ff_per_um node.Node.wire_res_ohm_per_um);
  List.iter
    (fun kind ->
      List.iter
        (fun drive ->
          let p = Library.params lib kind drive in
          Buffer.add_string b
            (Printf.sprintf "%s@%s:a=%h;c=%h;cc=%h;i=%s;r=%h;e=%h;ce=%h;l=%h;s=%h;q=%h\n"
               (Cell.kind_to_string kind) (drive_name drive)
               p.Library.area_um2 p.Library.input_cap_ff
               p.Library.clock_cap_ff
               (String.concat ","
                  (Array.to_list
                     (Array.map (Printf.sprintf "%h") p.Library.intrinsic_ps)))
               p.Library.drive_res_ps_per_ff p.Library.energy_fj
               p.Library.clock_energy_fj p.Library.leakage_nw
               p.Library.setup_ps p.Library.clk_q_ps))
        Cell.all_drives)
    Cell.all_kinds;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** [library_fingerprint lib] — digest of the full characterization: all
    (kind, drive) parameter records and the process-node constants. Any
    recharacterization ({!Library.map}) changes the fingerprint and
    invalidates every entry keyed under it. It is computed once per
    library value and memoized on the library ({!Library.memo_fingerprint}),
    so a cache hit pays for its key and its entry read, not for
    re-rendering ~700 floats. *)
let library_fingerprint (lib : Library.t) : string =
  Library.memo_fingerprint lib digest_library

(** [key ~lib_fp ~algo spec] — the content address: a hex digest over the
    format version, the library fingerprint, the algorithm tag and the
    canonicalized spec. *)
let key ~lib_fp ~algo (spec : Spec.t) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "|" [ format_version; lib_fp; algo; canonical_spec spec ]))

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

(** What a hit restores: the reported metrics plus the netlist/attempt
    shape the batch manifest prints. (The full netlist and layout are
    deliberately not stored — a batch report needs PPA, and anything that
    needs the artifacts recompiles.) *)
type value = {
  spec_desc : string;  (** human-readable, for reports; not part of the key *)
  crit_ps : float;
  fmax_ghz : float;
  power_w : float;
  area_mm2 : float;
  tops : float;
  tops_per_w : float;
  tops_per_mm2 : float;
  ops_norm : float;
  timing_closed : bool;
  insts : int;
  nets : int;
  attempts : int;
  boost : float;
}

let render_value (key : string) (v : value) : string =
  let b = Buffer.create 512 in
  let line k s = Buffer.add_string b (k ^ " " ^ s ^ "\n") in
  Buffer.add_string b (format_version ^ "\n");
  line "key" key;
  line "spec" v.spec_desc;
  line "crit_ps" (Printf.sprintf "%h" v.crit_ps);
  line "fmax_ghz" (Printf.sprintf "%h" v.fmax_ghz);
  line "power_w" (Printf.sprintf "%h" v.power_w);
  line "area_mm2" (Printf.sprintf "%h" v.area_mm2);
  line "tops" (Printf.sprintf "%h" v.tops);
  line "tops_per_w" (Printf.sprintf "%h" v.tops_per_w);
  line "tops_per_mm2" (Printf.sprintf "%h" v.tops_per_mm2);
  line "ops_norm" (Printf.sprintf "%h" v.ops_norm);
  line "timing_closed" (string_of_bool v.timing_closed);
  line "insts" (string_of_int v.insts);
  line "nets" (string_of_int v.nets);
  line "attempts" (string_of_int v.attempts);
  line "boost" (Printf.sprintf "%h" v.boost);
  let body = Buffer.contents b in
  body ^ "#md5 " ^ Digest.to_hex (Digest.string body) ^ "\n"

exception Bad of string

let parse_value ~key text : value =
  (* integrity first: the last line must be the checksum of everything
     before it, so truncation and bit flips both surface here *)
  let fail msg = raise (Bad msg) in
  let text_len = String.length text in
  if text_len = 0 then fail "empty entry";
  let body_end =
    match String.rindex_opt (String.sub text 0 (text_len - 1)) '\n' with
    | Some i -> i + 1
    | None -> fail "single-line entry"
  in
  let body = String.sub text 0 body_end in
  let last = String.trim (String.sub text body_end (text_len - body_end)) in
  (match String.split_on_char ' ' last with
  | [ "#md5"; sum ] ->
      if sum <> Digest.to_hex (Digest.string body) then
        fail "checksum mismatch"
  | _ -> fail "missing checksum line");
  let fields = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' body in
  (match lines with
  | magic :: rest ->
      if magic <> format_version then fail "wrong format version";
      List.iter
        (fun l ->
          if l <> "" then
            match String.index_opt l ' ' with
            | Some i ->
                Hashtbl.replace fields
                  (String.sub l 0 i)
                  (String.sub l (i + 1) (String.length l - i - 1))
            | None -> fail ("malformed line: " ^ l))
        rest
  | [] -> fail "empty entry");
  let str k =
    match Hashtbl.find_opt fields k with
    | Some v -> v
    | None -> fail ("missing field " ^ k)
  in
  let flt k =
    match float_of_string_opt (str k) with
    | Some f -> f
    | None -> fail ("bad float in field " ^ k)
  in
  let int k =
    match int_of_string_opt (str k) with
    | Some i -> i
    | None -> fail ("bad int in field " ^ k)
  in
  let bool k =
    match bool_of_string_opt (str k) with
    | Some v -> v
    | None -> fail ("bad bool in field " ^ k)
  in
  if str "key" <> key then fail "entry key does not match its address";
  {
    spec_desc = str "spec";
    crit_ps = flt "crit_ps";
    fmax_ghz = flt "fmax_ghz";
    power_w = flt "power_w";
    area_mm2 = flt "area_mm2";
    tops = flt "tops";
    tops_per_w = flt "tops_per_w";
    tops_per_mm2 = flt "tops_per_mm2";
    ops_norm = flt "ops_norm";
    timing_closed = bool "timing_closed";
    insts = int "insts";
    nets = int "nets";
    attempts = int "attempts";
    boost = flt "boost";
  }

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

(* Disk-cache outcome counts depend only on what is on disk for the keys
   asked about, so they are deterministic; the sweep count depends on
   when a previous writer died, so it is not. *)
let m_hits = Metrics.counter "cache.disk.hits"
let m_misses = Metrics.counter "cache.disk.misses"
let m_corrupt = Metrics.counter "cache.disk.corrupt"
let m_stores = Metrics.counter "cache.disk.stores"
let m_swept = Metrics.counter ~det:false "cache.disk.tmp_swept"

(* Each store counts its own outcomes on {!Metrics.scoped} views of the
   registry counters, so one process with two stores can tell them
   apart while [cache.disk.*] sums both. *)
type t = {
  root : string;
  hits : Metrics.counter;
  misses : Metrics.counter;
  corrupt : Metrics.counter;
  stores : Metrics.counter;
  swept : int;  (** stale temp files reaped when the store was opened *)
  tmp_seq : int Atomic.t;
}

(* A temp file is live for the milliseconds between open and rename; one
   older than this was left by a writer that died mid-store. Generous so
   a stalled NFS writer is never swept out from under itself. *)
let stale_temp_age_s = 600.0

(* Reap orphaned [.tmp-*] files a killed writer left behind. Only files
   with the temp prefix are candidates, and only when their mtime is
   older than {!stale_temp_age_s} — an in-flight write from a concurrent
   process keeps its temp. Unlinking races are benign: whoever loses
   just skips the file. *)
let sweep_stale_temps (dir : string) : int =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun acc f ->
          if String.length f >= 5 && String.sub f 0 5 = ".tmp-" then
            let path = Filename.concat dir f in
            match Unix.stat path with
            | exception Unix.Unix_error _ -> acc
            | st ->
                if now -. st.Unix.st_mtime > stale_temp_age_s then
                  match Sys.remove path with
                  | () -> acc + 1
                  | exception Sys_error _ -> acc
                else acc
          else acc)
        0 files

(** [open_root dir] — open (creating if needed) the store at [dir],
    reaping any stale temp files a previously killed writer orphaned.
    The parent of [dir] must already exist: a typo'd [--cache-dir]
    should be a one-line error, not a silently created directory tree. *)
let open_root (dir : string) : (t, string) Stdlib.result =
  let mk () =
    let swept = sweep_stale_temps dir in
    Metrics.add m_swept swept;
    Ok
      {
        root = dir;
        hits = Metrics.scoped m_hits;
        misses = Metrics.scoped m_misses;
        corrupt = Metrics.scoped m_corrupt;
        stores = Metrics.scoped m_stores;
        swept;
        tmp_seq = Atomic.make 0;
      }
  in
  if Sys.file_exists dir then
    if Sys.is_directory dir then mk ()
    else Error (Printf.sprintf "cache path %s exists and is not a directory" dir)
  else
    let parent = Filename.dirname dir in
    if Sys.file_exists parent && Sys.is_directory parent then begin
      (match Sys.mkdir dir 0o755 with
      | () -> ()
      | exception Sys_error _ when Sys.file_exists dir ->
          (* another domain/process created it between the check and the
             mkdir: that is exactly the directory we wanted *)
          ());
      mk ()
    end
    else
      Error
        (Printf.sprintf "cache directory parent %s does not exist" parent)

let root (t : t) = t.root
let path_of_key (t : t) k = Filename.concat t.root (k ^ ".entry")

type lookup = Hit of value | Miss | Corrupt of string

(** [lookup t key] — {!Hit} with the stored value, {!Miss} when no entry
    exists, {!Corrupt} (counted as a miss) when an entry exists but fails
    its integrity or parse checks. Never raises. *)
let lookup (t : t) (key : string) : lookup =
  let path = path_of_key t key in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ ->
      Metrics.incr t.misses;
      Miss
  | exception End_of_file ->
      Metrics.incr t.corrupt;
      Corrupt "short read"
  | text -> (
      match parse_value ~key text with
      | v ->
          Metrics.incr t.hits;
          Hit v
      | exception Bad reason ->
          Metrics.incr t.corrupt;
          Corrupt reason)

(** [store t key v] — write the entry atomically: a temp file in the
    store directory, then [rename] over the final name, so a concurrent
    reader (or a second writer racing on the same key) only ever sees a
    complete entry. Write failures are swallowed: the cache is an
    accelerator, and a read-only or full disk must not fail the build. *)
let store (t : t) (key : string) (v : value) : unit =
  let path = path_of_key t key in
  let tmp =
    Filename.concat t.root
      (Printf.sprintf ".tmp-%s-%d-%d" key (Unix.getpid ())
         (Atomic.fetch_and_add t.tmp_seq 1))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (render_value key v));
    Sys.rename tmp path
  with
  | () -> Metrics.incr t.stores
  | exception Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ())

(* This store's own outcome counts (see {!t}). *)
let hits (t : t) = Metrics.counter_value t.hits
let misses (t : t) = Metrics.counter_value t.misses
let corrupt (t : t) = Metrics.counter_value t.corrupt
let stores (t : t) = Metrics.counter_value t.stores

(** [entry_count t] — complete entries currently on disk. *)
let entry_count (t : t) : int =
  match Sys.readdir t.root with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun acc f -> if Filename.check_suffix f ".entry" then acc + 1 else acc)
        0 files

let describe (t : t) =
  Printf.sprintf
    "compile cache: %d hits / %d misses (%d corrupt entries replaced), %d \
     stores%s"
    (hits t) (misses t) (corrupt t) (stores t)
    (if t.swept > 0 then Printf.sprintf ", %d stale temp(s) swept" t.swept
     else "")
