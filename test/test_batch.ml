(* Tests for the batch compilation driver and the persistent
   content-addressed compile cache: cache-key soundness (canonicalization
   and perturbation sensitivity, fuzzed over Specgen seeds), entry
   round-trip and corruption tolerance, concurrent writers, manifest
   parsing/validation diagnostics, and batch determinism across cache
   states and job counts. *)

let lib = Library.n40 ()
let scl = Scl.create lib
let ctx = Ctx.of_parts lib scl
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let lib_fp = Disk_cache.library_fingerprint lib
let key s = Disk_cache.key ~lib_fp ~algo:Searcher.algorithm_version s
let gen_spec seed = List.hd (Specgen.generate ~seed ~count:1)

(* scratch stores live under the test sandbox cwd; the name matches the
   repo's runtest-artifact gitignore pattern in case one leaks *)
let scratch_n = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch () =
  incr scratch_n;
  let d = Printf.sprintf "runtest-test_batch-cache-%d" !scratch_n in
  rm_rf d;
  d

let open_cache dir =
  match Disk_cache.open_root dir with
  | Ok c -> c
  | Error e -> Alcotest.fail e

(* [ctx] with a store opened under [dir] attached, and that store: a
   compile reaches the cache only through its context *)
let cached_ctx dir =
  match Ctx.with_cache_dir dir ctx with
  | Ok c -> (c, Option.get (Ctx.cache c))
  | Error d -> Alcotest.fail (Diag.to_string d)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let small_spec =
  {
    Spec.rows = 8;
    cols = 8;
    mcr = 1;
    input_prec = Precision.int8;
    weight_prec = Precision.int8;
    mac_freq_hz = 400e6;
    weight_update_freq_hz = 400e6;
    vdd = 0.9;
    preference = Spec.Balanced;
  }

(* ---------------- cache-key soundness (property-based) ---------------- *)

(* Re-spell the canonical manifest line with rotated field order and
   messy separators; parsing must recover the identical spec and key. *)
let messy_line ~rot (s : Spec.t) =
  let arr = Array.of_list (String.split_on_char ' ' (Batch.render_spec_line s)) in
  let n = Array.length arr in
  let rot = ((rot mod n) + n) mod n in
  let sep i = match i mod 3 with 0 -> " " | 1 -> "  \t" | _ -> "\t " in
  String.concat ""
    (List.init n (fun i -> (if i = 0 then " " else sep i) ^ arr.((i + rot) mod n)))
  ^ "  "

let prop_key_field_order =
  QCheck.Test.make ~count:100
    ~name:"field order and whitespace never change the key"
    QCheck.(pair small_nat small_nat)
    (fun (seed, rot) ->
      let s = gen_spec seed in
      match Batch.parse_spec_line (messy_line ~rot s) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok s' ->
          s' = s
          && Disk_cache.canonical_spec s' = Disk_cache.canonical_spec s
          && key s' = key s)

(* Every single-field perturbation must change the canonical form and
   therefore the key: a false hit would silently serve the wrong macro. *)
let perturbations (s : Spec.t) : (string * Spec.t) list =
  let other_int p = if p = Precision.int8 then Precision.int4 else Precision.int8 in
  [
    ("rows", { s with Spec.rows = s.Spec.rows + 1 });
    ("cols", { s with Spec.cols = s.Spec.cols + 1 });
    ("mcr", { s with Spec.mcr = s.Spec.mcr * 2 });
    ("input_prec", { s with Spec.input_prec = other_int s.Spec.input_prec });
    ("weight_prec", { s with Spec.weight_prec = other_int s.Spec.weight_prec });
    ( "mac_freq",
      { s with Spec.mac_freq_hz = s.Spec.mac_freq_hz *. (1.0 +. 1e-12) } );
    ( "wupd_freq",
      { s with Spec.weight_update_freq_hz = s.Spec.weight_update_freq_hz +. 1.0 } );
    ("vdd", { s with Spec.vdd = s.Spec.vdd +. 1e-9 });
    ( "preference",
      {
        s with
        Spec.preference =
          (match s.Spec.preference with
          | Spec.Balanced -> Spec.Prefer_power
          | _ -> Spec.Balanced);
      } );
  ]

let prop_key_perturbation =
  QCheck.Test.make ~count:100
    ~name:"any spec-field perturbation changes the key" QCheck.small_nat
    (fun seed ->
      let s = gen_spec seed in
      let k = key s in
      List.for_all
        (fun (field, s') ->
          if key s' = k then
            QCheck.Test.fail_reportf "perturbing %s kept the key" field
          else true)
        (perturbations s))

let test_key_library_sensitivity () =
  (* recharacterizing one parameter must invalidate: the key changes
     through the library fingerprint *)
  let lib' =
    Library.map
      (fun p -> { p with Library.area_um2 = p.Library.area_um2 *. (1.0 +. 1e-9) })
      lib
  in
  let fp' = Disk_cache.library_fingerprint lib' in
  check_bool "library fingerprint moved" false (fp' = lib_fp);
  check_bool "key moved with the library" false
    (Disk_cache.key ~lib_fp:fp' ~algo:Searcher.algorithm_version small_spec
    = key small_spec)

let test_key_algorithm_sensitivity () =
  check_bool "algorithm tag versions the key" false
    (Disk_cache.key ~lib_fp ~algo:"mso-hhs-1" small_spec = key small_spec);
  (* the pipeline folds style and policy into the tag *)
  let t1 = Pipeline.cache_algo_tag ~style:Floorplan.Sdp Pipeline.default_policy in
  let t2 =
    Pipeline.cache_algo_tag ~style:Floorplan.Sdp
      { Pipeline.default_policy with Pipeline.max_eco_iters = 4 }
  in
  let t3 = Pipeline.cache_algo_tag ~style:Floorplan.Scattered Pipeline.default_policy in
  check_bool "policy in tag" false (t1 = t2);
  check_bool "style in tag" false (t1 = t3)

(* The key format is a compatibility contract: every user's store is
   addressed by it, so a change that silently re-keys (a new rendering of
   the library, the spec or the tag) turns every store cold. These hex
   literals were recorded from the byte-level format; change them only
   together with {!Disk_cache.format_version}. *)
let test_key_format_pinned () =
  let fp = Disk_cache.library_fingerprint (Library.n40 ()) in
  check_str "n40 library fingerprint" "55fb00e5a960d4a5b264c79c7b0efbaa" fp;
  check_str "default-spec compile key" "bbb63f392879a7207d72c7a8ab2ab6d0"
    (Disk_cache.key ~lib_fp:fp
       ~algo:(Pipeline.cache_algo_tag ~style:Floorplan.Sdp Pipeline.default_policy)
       Batch.default_spec)

(* ---------------- library fingerprint memo ---------------- *)

(* a recharacterization that moves power only *)
let double_leakage =
  Library.map (fun p -> { p with Library.leakage_nw = p.Library.leakage_nw *. 2.0 })

(* The fingerprint is computed once per library value: a cache hit must
   not re-render and re-digest the whole characterization. *)
let test_fingerprint_memoized () =
  let l = Library.n40 () in
  let fp = Disk_cache.library_fingerprint l in
  check_bool "second call returns the memoized string" true
    (fp == Disk_cache.library_fingerprint l)

(* A recharacterized library gets its own digest and leaves the source's
   memo alone; even an identity map starts with an empty memo, so the
   copy never serves the source's value. *)
let test_fingerprint_map_starts_empty () =
  let l = Library.n40 () in
  let fp = Disk_cache.library_fingerprint l in
  check_bool "mapped library has its own digest" false
    (Disk_cache.library_fingerprint (double_leakage l) = fp);
  check_str "source digest unchanged" fp (Disk_cache.library_fingerprint l);
  let same = Library.map Fun.id l in
  let fp_same = Disk_cache.library_fingerprint same in
  check_str "identity map digests equal" fp fp_same;
  check_bool "identity map computed its own digest" false (fp_same == fp)

(* Service.batch forces the memo from several domains at once: every
   racer must get the same digest and none may raise. *)
let test_fingerprint_domain_race () =
  let l = Library.n40 () in
  let n = 4 in
  let ready = Atomic.make 0 in
  let racers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Domain.cpu_relax ()
            done;
            Disk_cache.library_fingerprint l))
  in
  let fps = List.map Domain.join racers in
  List.iter (check_str "racers agree" (Disk_cache.library_fingerprint l)) fps

(* Two services over two libraries share one store and alternate
   requests: each repeat is a hit on its own entry, and the
   recharacterized service is never served the n40 entry. *)
let test_two_libraries_share_a_store () =
  let dir = scratch () in
  let service l =
    match Ctx.with_cache_dir dir (Ctx.of_parts l (Scl.create l)) with
    | Ok c -> Service.create c
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let n40 = Library.n40 () in
  let a = service n40 and b = service (double_leakage n40) in
  let spec16 = { Spec.fig8 with Spec.rows = 16; cols = 16; mcr = 1 } in
  let serve svc =
    match (Service.compile svc spec16).Service.outcome with
    | Ok s -> s
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let a1 = serve a in
  let b1 = serve b in
  let a2 = serve a in
  let b2 = serve b in
  check_bool "n40 cold request compiles" true
    (a1.Pipeline.sum_cache = Pipeline.Cache_miss);
  check_bool "recharacterized cold request compiles, not the n40 entry" true
    (b1.Pipeline.sum_cache = Pipeline.Cache_miss);
  check_bool "n40 repeat hits" true (a2.Pipeline.sum_cache = Pipeline.Cache_hit);
  check_bool "recharacterized repeat hits" true
    (b2.Pipeline.sum_cache = Pipeline.Cache_hit);
  check_bool "n40 hit is its own entry" true
    (a2.Pipeline.sum_metrics = a1.Pipeline.sum_metrics);
  check_bool "recharacterized hit is its own entry" true
    (b2.Pipeline.sum_metrics = b1.Pipeline.sum_metrics);
  check_bool "the two libraries compile to different power" false
    (b2.Pipeline.sum_metrics = a2.Pipeline.sum_metrics);
  (match Ctx.cache (Service.ctx a) with
  | Some c -> check_int "one entry per library" 2 (Disk_cache.entry_count c)
  | None -> Alcotest.fail "service lost its compile cache");
  rm_rf dir

(* ---------------- entry round-trip and corruption ---------------- *)

let sample_value =
  {
    Disk_cache.spec_desc = Spec.describe small_spec;
    crit_ps = 1090.65432109876;
    fmax_ghz = 0.7244;
    power_w = 1.8e-4;
    area_mm2 = 3.6e-3;
    tops = 8.192e-4;
    tops_per_w = 4.55;
    tops_per_mm2 = 0.2275;
    ops_norm = 64.0;
    timing_closed = true;
    insts = 753;
    nets = 811;
    attempts = 2;
    boost = 1.12;
  }

let prop_value_roundtrip =
  QCheck.Test.make ~count:50 ~name:"stored entries round-trip bit-exactly"
    QCheck.(triple small_nat (float_range (-1e9) 1e9) bool)
    (fun (n, f, b) ->
      let dir = scratch () in
      let c = open_cache dir in
      let v =
        {
          sample_value with
          Disk_cache.crit_ps = f;
          power_w = f *. ldexp 1.0 (-40);
          tops = ldexp (float_of_int (n + 1)) (-n - 1000);
          (* subnormal territory *)
          insts = n;
          timing_closed = b;
        }
      in
      let k = key small_spec in
      Disk_cache.store c k v;
      let ok =
        match Disk_cache.lookup c k with
        | Disk_cache.Hit v' -> v' = v
        | _ -> false
      in
      rm_rf dir;
      ok)

let test_corruption_tolerated () =
  let dir = scratch () in
  let c = open_cache dir in
  let k = key small_spec in
  Disk_cache.store c k sample_value;
  let path = Disk_cache.path_of_key c k in
  let intact = read_file path in
  (* truncation: a partially written or torn entry is a miss, not a crash *)
  write_file path (String.sub intact 0 (String.length intact / 2));
  (match Disk_cache.lookup c k with
  | Disk_cache.Corrupt _ -> ()
  | Disk_cache.Hit _ -> Alcotest.fail "truncated entry served as a hit"
  | Disk_cache.Miss -> Alcotest.fail "truncated entry reported Miss, not Corrupt");
  (* bit flip in the middle of the body: caught by the checksum *)
  let flipped = Bytes.of_string intact in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x10));
  write_file path (Bytes.to_string flipped);
  (match Disk_cache.lookup c k with
  | Disk_cache.Corrupt reason ->
      check_bool "reason mentions the checksum" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "bit-flipped entry not reported Corrupt");
  (* garbage that is not even line-structured *)
  write_file path "\x00\x01\x02nonsense";
  (match Disk_cache.lookup c k with
  | Disk_cache.Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage entry not reported Corrupt");
  (* absent entry is a plain miss *)
  Sys.remove path;
  (match Disk_cache.lookup c k with
  | Disk_cache.Miss -> ()
  | _ -> Alcotest.fail "missing entry not reported Miss");
  check_int "hits" 0 (Disk_cache.hits c);
  check_int "misses" 1 (Disk_cache.misses c);
  check_int "corrupt" 3 (Disk_cache.corrupt c);
  rm_rf dir

let test_corrupt_entry_recompiled () =
  (* end-to-end: a corrupted entry must recompute (same numbers), emit a
     batch diagnostic, and leave a repaired entry behind *)
  let dir = scratch () in
  let cctx, c = cached_ctx dir in
  let s1 =
    match Pipeline.run_cached cctx small_spec with
    | Ok s -> s
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  check_bool "first run is a miss" true (s1.Pipeline.sum_cache = Pipeline.Cache_miss);
  let path =
    Disk_cache.path_of_key c
      (Disk_cache.key ~lib_fp
         ~algo:(Pipeline.cache_algo_tag ~style:Floorplan.Sdp Pipeline.default_policy)
         small_spec)
  in
  write_file path (String.sub (read_file path) 0 40);
  let r = Batch.run ~jobs:1 cctx [ small_spec ] in
  check_int "batch completed" 0 r.Batch.failed;
  check_int "corrupt entry recompiled" 1 r.Batch.corrupt;
  (match r.Batch.warnings with
  | [ d ] ->
      check_bool "warning mentions corruption" true
        (let s = Diag.to_string d in
         String.length s > 0 && not (String.contains s '\n'))
  | ws -> Alcotest.fail (Printf.sprintf "expected 1 warning, got %d" (List.length ws)));
  (match r.Batch.items with
  | [ { Batch.outcome = Ok s2; _ } ] ->
      check_bool "recompute reproduces the metrics" true
        (s2.Pipeline.sum_metrics = s1.Pipeline.sum_metrics)
  | _ -> Alcotest.fail "unexpected batch items");
  (* the store is repaired: next run hits *)
  (match Pipeline.run_cached cctx small_spec with
  | Ok s3 ->
      check_bool "repaired entry hits" true (s3.Pipeline.sum_cache = Pipeline.Cache_hit);
      check_bool "hit reproduces the metrics" true
        (s3.Pipeline.sum_metrics = s1.Pipeline.sum_metrics)
  | Error d -> Alcotest.fail (Diag.to_string d));
  rm_rf dir

let test_concurrent_writers () =
  (* domains racing on the same key must leave one complete entry: the
     atomic rename means a reader can never observe a torn write *)
  let dir = scratch () in
  let c = open_cache dir in
  let k = key small_spec in
  let values =
    List.init 16 (fun i ->
        { sample_value with Disk_cache.spec_desc = Printf.sprintf "writer-%d" (i mod 4) })
  in
  Pool.parallel_iter ~jobs:4 (fun v -> Disk_cache.store c k v) values;
  (match Disk_cache.lookup c k with
  | Disk_cache.Hit v ->
      check_bool "entry is one of the written values" true
        (List.exists (fun w -> w = v) values)
  | Disk_cache.Miss -> Alcotest.fail "no entry after 16 stores"
  | Disk_cache.Corrupt r -> Alcotest.fail ("store corrupted by races: " ^ r));
  check_int "exactly one entry" 1 (Disk_cache.entry_count c);
  rm_rf dir

let test_stale_temp_sweep () =
  (* a writer killed between open_out and rename leaves a .tmp-* orphan;
     reopening the store must reap old orphans, keep a fresh (possibly
     in-flight) temp, and never touch complete entries *)
  let dir = scratch () in
  let c = open_cache dir in
  let k = key small_spec in
  Disk_cache.store c k sample_value;
  let stale = Filename.concat dir ".tmp-deadbeef-999-0" in
  write_file stale "torn partial write";
  (* age it well past the sweep threshold *)
  Unix.utimes stale 1.0 1.0;
  let fresh = Filename.concat dir ".tmp-cafef00d-1000-0" in
  write_file fresh "in-flight write";
  let c2 = open_cache dir in
  check_bool "stale temp swept" false (Sys.file_exists stale);
  check_bool "in-flight temp kept" true (Sys.file_exists fresh);
  check_int "sweep counted in stats" 1 c2.Disk_cache.swept;
  (match Disk_cache.lookup c2 k with
  | Disk_cache.Hit _ -> ()
  | Disk_cache.Miss | Disk_cache.Corrupt _ ->
      Alcotest.fail "complete entry lost to the sweep");
  rm_rf dir

(* Two stores opened on one directory are two instances: each counts
   only its own lookups and stores, while the registry's cache.disk.*
   counters sum both. *)
let test_store_instances_isolated () =
  let dir = scratch () in
  let a = open_cache dir in
  let b = open_cache dir in
  let registry name = Metrics.counter_value (Metrics.counter name) in
  let hits0 = registry "cache.disk.hits"
  and misses0 = registry "cache.disk.misses"
  and stores0 = registry "cache.disk.stores" in
  let k = key small_spec in
  (match Disk_cache.lookup a k with
  | Disk_cache.Miss -> ()
  | _ -> Alcotest.fail "empty store did not miss");
  Disk_cache.store a k sample_value;
  List.iter
    (fun c ->
      match Disk_cache.lookup c k with
      | Disk_cache.Hit _ -> ()
      | _ -> Alcotest.fail "stored entry did not hit")
    [ b; b; a ];
  check_int "a: own hits" 1 (Disk_cache.hits a);
  check_int "a: own misses" 1 (Disk_cache.misses a);
  check_int "a: own stores" 1 (Disk_cache.stores a);
  check_int "b: own hits" 2 (Disk_cache.hits b);
  check_int "b: no misses" 0 (Disk_cache.misses b);
  check_int "b: no stores" 0 (Disk_cache.stores b);
  check_int "registry hits sum both" 3 (registry "cache.disk.hits" - hits0);
  check_int "registry misses sum both" 1
    (registry "cache.disk.misses" - misses0);
  check_int "registry stores sum both" 1
    (registry "cache.disk.stores" - stores0);
  rm_rf dir

(* ---------------- manifest parsing and validation ---------------- *)

let one_line d =
  let s = Diag.to_string d in
  check_bool "diagnostic is one line" false (String.contains s '\n');
  s

let test_manifest_errors () =
  (match Batch.parse_manifest "" with
  | Error d ->
      check_bool "empty manifest named" true
        (let s = one_line d in
         String.length s >= 5 && Diag.is_error d)
  | Ok _ -> Alcotest.fail "empty manifest accepted");
  (match Batch.parse_manifest "# only comments\n\n   \n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "comment-only manifest accepted");
  (match Batch.parse_manifest "rows=8 cols=8\nrows=oops\n" with
  | Error d ->
      let s = one_line d in
      let contains sub =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      check_bool "line number reported" true (contains "line 2")
  | Ok _ -> Alcotest.fail "bad integer accepted")

let test_spec_line_errors () =
  let bad l =
    match Batch.parse_spec_line l with
    | Error e ->
        check_bool "reason non-empty" true (String.length e > 0)
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" l)
  in
  bad "rows=8 bogus=1";
  bad "rows=8 rows=16";
  bad "iprec=int3";
  bad "prefer=speed";
  bad "rows";
  bad "freq_mhz=fast"

let test_manifest_crlf () =
  (* a CRLF-edited manifest (comments, blanks, trailing \r on every
     line) must parse to exactly the specs of its LF twin, keys included *)
  let unix_text =
    "# CRLF round-trip\nrows=16 cols=16 freq_mhz=300\n\n"
    ^ "rows=8 cols=8 mcr=1 freq_mhz=400 prefer=power\n"
  in
  let crlf_text =
    String.concat "\r\n" (String.split_on_char '\n' unix_text)
  in
  match (Batch.parse_manifest unix_text, Batch.parse_manifest crlf_text) with
  | Ok a, Ok b ->
      check_int "same spec count" (List.length a) (List.length b);
      check_bool "CRLF parses to identical specs" true (a = b);
      List.iter2 (fun x y -> check_str "same cache key" (key x) (key y)) a b;
      (* render -> CRLF -> parse round-trips a canonical line exactly *)
      (match Batch.parse_manifest (Batch.render_spec_line small_spec ^ "\r\n") with
      | Ok [ s ] -> check_bool "rendered line survives CRLF" true (s = small_spec)
      | Ok _ -> Alcotest.fail "rendered line parsed to the wrong spec count"
      | Error d -> Alcotest.fail (Diag.to_string d))
  | Error d, _ | _, Error d -> Alcotest.fail (Diag.to_string d)

let test_cache_dir_validation () =
  (match Disk_cache.open_root "runtest-test_batch-no-such-parent/sub/cache" with
  | Error msg -> check_bool "parent named" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "missing parent accepted");
  (* a file where the store should be is an error, not a clobber *)
  let f = "runtest-test_batch-cache-file" in
  write_file f "not a directory";
  (match Disk_cache.open_root f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "plain file accepted as cache dir");
  Sys.remove f

(* ---------------- determinism across cache states and jobs ------------ *)

let canonical_specs = List.map snd Snapshot.canonical_specs

let test_batch_determinism () =
  let dir = scratch () in
  let cctx, _ = cached_ctx dir in
  let n = List.length canonical_specs in
  (* cold: every spec compiles and is stored *)
  let r_cold = Batch.run ~jobs:2 cctx canonical_specs in
  check_int "cold: no failures" 0 r_cold.Batch.failed;
  check_int "cold: all misses" n r_cold.Batch.misses;
  let ppa_cold = Batch.render_ppa r_cold in
  (* warm, jobs=1 and jobs=4: all hits, identical PPA, identical traces *)
  let t1 = Trace.create () and t4 = Trace.create () in
  let r_w1 = Batch.run ~jobs:1 ~trace:t1 cctx canonical_specs in
  let r_w4 = Batch.run ~jobs:4 ~trace:t4 cctx canonical_specs in
  check_int "warm j1: all hits" n r_w1.Batch.hits;
  check_int "warm j4: all hits" n r_w4.Batch.hits;
  check_str "warm j1 PPA == cold PPA" ppa_cold (Batch.render_ppa r_w1);
  check_str "warm j4 PPA == cold PPA" ppa_cold (Batch.render_ppa r_w4);
  check_str "trace fingerprint jobs-invariant" (Trace.fingerprint t1)
    (Trace.fingerprint t4);
  check_int "warm trace: one cache row per spec" n (Trace.length t4);
  (* no cache at all: same numbers *)
  let r_nc = Batch.run ~jobs:4 ctx canonical_specs in
  check_int "no-cache: all uncached" n r_nc.Batch.uncached;
  check_str "no-cache PPA == cold PPA" ppa_cold (Batch.render_ppa r_nc);
  rm_rf dir

let test_failed_spec_is_an_item () =
  (* a malformed spec fails its own item with a diagnostic; the batch
     and the other items complete *)
  let bad = { small_spec with Spec.mcr = 3 } in
  let r = Batch.run ~jobs:2 ctx [ small_spec; bad ] in
  check_int "one failure" 1 r.Batch.failed;
  match List.rev r.Batch.items with
  | { Batch.outcome = Error d; _ } :: _ ->
      ignore (one_line d);
      check_bool "other item compiled" true
        (match r.Batch.items with
        | { Batch.outcome = Ok _; _ } :: _ -> true
        | _ -> false)
  | _ -> Alcotest.fail "bad spec did not fail its item"

let test_non_finite_manifest_line_fails () =
  (* a NaN clock or infinite voltage parses as a float, but must fail its
     item and never reach the store *)
  match Batch.parse_manifest "rows=8 cols=8 freq_mhz=nan\nrows=8 cols=8 vdd=inf\n" with
  | Error d -> Alcotest.failf "manifest rejected: %s" (Diag.to_string d)
  | Ok specs ->
      let dir = scratch () in
      let cctx, c = cached_ctx dir in
      let r = Batch.run ~jobs:1 cctx specs in
      check_int "both items failed" 2 r.Batch.failed;
      check_int "nothing stored" 0 (Disk_cache.stores c);
      rm_rf dir

(* Decode the JSON string literal whose opening quote is at [i]:
   [Some (decoded, index after the closing quote)], or [None] when a raw
   control character or a bad escape makes it invalid JSON. *)
let json_string_at s i =
  let b = Buffer.create 64 in
  let rec go j =
    if j >= String.length s then None
    else
      match s.[j] with
      | '"' -> Some (Buffer.contents b, j + 1)
      | '\\' when j + 1 < String.length s -> (
          match s.[j + 1] with
          | ('"' | '\\' | '/') as c ->
              Buffer.add_char b c;
              go (j + 2)
          | 'n' ->
              Buffer.add_char b '\n';
              go (j + 2)
          | 't' ->
              Buffer.add_char b '\t';
              go (j + 2)
          | 'u' when j + 5 < String.length s -> (
              match int_of_string_opt ("0x" ^ String.sub s (j + 2) 4) with
              | Some c when c < 0x80 ->
                  Buffer.add_char b (Char.chr c);
                  go (j + 6)
              | Some _ | None -> None)
          | _ -> None)
      | c when Char.code c < 0x20 -> None
      | c ->
          Buffer.add_char b c;
          go (j + 1)
  in
  if i < String.length s && s.[i] = '"' then go (i + 1) else None

let test_manifest_json_escapes_diagnostic () =
  let d =
    Diag.error ~stage:"test"
      ~payload:[ ("path", "C:\\tmp\\\"x\"") ]
      "line one\nline \"two\" with \\ and a tab\t"
  in
  let r =
    {
      Batch.items =
        [
          { Batch.index = 0; spec = small_spec; outcome = Error d; wall_s = 0.0 };
        ];
      hits = 0;
      misses = 0;
      corrupt = 0;
      uncached = 1;
      failed = 1;
      wall_s = 0.0;
      warnings = [];
    }
  in
  let json = Batch.manifest_json r in
  let key = "\"diagnostic\": " in
  let rec find i =
    if i + String.length key > String.length json then
      Alcotest.fail "manifest has no diagnostic field"
    else if String.sub json i (String.length key) = key then
      i + String.length key
    else find (i + 1)
  in
  match json_string_at json (find 0) with
  | None -> Alcotest.fail "diagnostic is not a valid JSON string"
  | Some (decoded, next) ->
      check_str "diagnostic round-trips" (Diag.to_string d) decoded;
      check_bool "field ends where the next one starts" true
        (String.sub json next 2 = ", ")

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_key_field_order; prop_key_perturbation; prop_value_roundtrip ]

let () =
  Alcotest.run "batch"
    [
      ("key_soundness",
        qtests
        @ [
            Alcotest.test_case "library hash invalidates" `Quick
              test_key_library_sensitivity;
            Alcotest.test_case "algorithm tag invalidates" `Quick
              test_key_algorithm_sensitivity;
            Alcotest.test_case "key format pinned" `Quick
              test_key_format_pinned;
          ] );
      ( "fingerprint",
        [
          Alcotest.test_case "computed once per library" `Quick
            test_fingerprint_memoized;
          Alcotest.test_case "Library.map starts empty" `Quick
            test_fingerprint_map_starts_empty;
          Alcotest.test_case "four domains race the memo" `Quick
            test_fingerprint_domain_race;
          Alcotest.test_case "two libraries share a store" `Quick
            test_two_libraries_share_a_store;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "corrupt entries tolerated" `Quick
            test_corruption_tolerated;
          Alcotest.test_case "corrupt entry recompiled + diagnosed" `Quick
            test_corrupt_entry_recompiled;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_writers;
          Alcotest.test_case "stale temp sweep" `Quick test_stale_temp_sweep;
          Alcotest.test_case "two stores count their own lookups" `Quick
            test_store_instances_isolated;
        ] );
      ( "validation",
        [
          Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
          Alcotest.test_case "spec line errors" `Quick test_spec_line_errors;
          Alcotest.test_case "CRLF manifests" `Quick test_manifest_crlf;
          Alcotest.test_case "cache dir" `Quick test_cache_dir_validation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cold/warm/no-cache/jobs" `Slow
            test_batch_determinism;
          Alcotest.test_case "per-spec failure isolation" `Quick
            test_failed_spec_is_an_item;
          Alcotest.test_case "non-finite clock or voltage fails its item"
            `Quick test_non_finite_manifest_line_fails;
          Alcotest.test_case "manifest JSON escapes diagnostics" `Quick
            test_manifest_json_escapes_diagnostic;
        ] );
    ]
