(* Execution-context tests: shared-vs-fresh world determinism, the SCL
   memo's hit accounting across repeat compiles, Service request
   isolation under a parallel client, and a source-level guard that no
   layer above the context constructs the world by hand. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let small_spec =
  {
    Spec.rows = 16;
    cols = 16;
    mcr = 1;
    input_prec = Precision.int8;
    weight_prec = Precision.int8;
    mac_freq_hz = 300e6;
    weight_update_freq_hz = 300e6;
    vdd = 0.9;
    preference = Spec.Balanced;
  }

(* compile [small_spec] under [ctx] with a private trace; return the
   deterministic view of the run *)
let compile_under (ctx : Ctx.t) : string * Pipeline.metrics =
  let tr = Trace.create () in
  match Pipeline.run ~trace:tr ctx small_spec with
  | Error d -> Alcotest.failf "pipeline failed: %s" (Diag.to_string d)
  | Ok r ->
      (Trace.fingerprint tr, r.Pipeline.artifact.Pipeline.metrics)

(* ---------------- shared vs fresh determinism ---------------- *)

(* Two compiles through one shared context must be bit-identical to each
   other and to a compile through a freshly built world, at any job
   count: the context only memoizes characterization, it never changes
   what the pipeline computes. *)
let test_shared_vs_fresh_determinism () =
  List.iter
    (fun jobs ->
      let tag s = Printf.sprintf "%s (jobs=%d)" s jobs in
      let shared = Ctx.with_jobs jobs (Ctx.default ()) in
      let fp1, m1 = compile_under shared in
      let fp2, m2 = compile_under shared in
      let fpf, mf = compile_under (Ctx.with_jobs jobs (Ctx.fresh ())) in
      check_string (tag "shared repeat fingerprint") fp1 fp2;
      check_bool (tag "shared repeat metrics") true (m1 = m2);
      check_string (tag "fresh fingerprint") fp1 fpf;
      check_bool (tag "fresh metrics") true (m1 = mf))
    [ 1; 4 ];
  (* and across job counts: the contract the whole repo leans on *)
  let fp1, m1 = compile_under (Ctx.with_jobs 1 (Ctx.fresh ())) in
  let fp4, m4 = compile_under (Ctx.with_jobs 4 (Ctx.fresh ())) in
  check_string "jobs=1 vs jobs=4 fingerprint" fp1 fp4;
  check_bool "jobs=1 vs jobs=4 metrics" true (m1 = m4)

(* ---------------- SCL memo accounting ---------------- *)

(* a target tight enough that the searcher consults the characterized
   LUTs (tt1 tree queries) instead of closing on the initial config *)
let tight_spec =
  {
    small_spec with
    Spec.mac_freq_hz = 1500e6;
    weight_update_freq_hz = 1500e6;
  }

let compile_tight (ctx : Ctx.t) =
  match Pipeline.run ctx tight_spec with
  | Error d -> Alcotest.failf "pipeline failed: %s" (Diag.to_string d)
  | Ok _ -> ()

let test_scl_memo_hits () =
  let ctx = Ctx.fresh () in
  compile_tight ctx;
  let s1 = Ctx.scl_stats ctx in
  check_bool "first compile characterizes" true (s1.Scl.misses > 0);
  check_bool "memo populated" true (s1.Scl.entries > 0);
  compile_tight ctx;
  let s2 = Ctx.scl_stats ctx in
  check_bool "second compile hits the memo" true (s2.Scl.hits > s1.Scl.hits);
  check_int "second compile adds no misses" s1.Scl.misses s2.Scl.misses;
  check_int "second compile adds no entries" s1.Scl.entries s2.Scl.entries

(* ---------------- Service request isolation ---------------- *)

(* Several clients hammer one warm service in parallel. Every request
   must carry its own trace (equal to a solo compile of the same spec
   in a private world), ids must be unique, and the shared counters
   must add up — nothing leaks between requests. *)
let test_service_isolation () =
  let specs =
    [
      small_spec;
      { small_spec with Spec.rows = 32 };
      { small_spec with Spec.preference = Spec.Prefer_power };
    ]
  in
  let svc = Service.create (Ctx.with_jobs 2 (Ctx.fresh ())) in
  let reqs =
    Pool.parallel_map ~jobs:3 (fun s -> (s, Service.compile svc s)) specs
  in
  let ids =
    List.map (fun (_, (r : Service.request)) -> r.Service.id) reqs
  in
  check_int "unique request ids" (List.length specs)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (s, (r : Service.request)) ->
      match r.Service.outcome with
      | Error d -> Alcotest.failf "request failed: %s" (Diag.to_string d)
      | Ok sum ->
          (* replay the same spec solo, in a private fresh world *)
          let tr = Trace.create () in
          let solo_sum =
            match Pipeline.run_cached ~trace:tr (Ctx.fresh ()) s with
            | Ok sum -> sum
            | Error d ->
                Alcotest.failf "solo replay failed: %s" (Diag.to_string d)
          in
          check_bool "request metrics match solo compile" true
            (sum.Pipeline.sum_metrics = solo_sum.Pipeline.sum_metrics);
          check_string "request trace matches solo compile"
            (Trace.fingerprint tr)
            (Trace.fingerprint r.Service.trace))
    reqs;
  let st = Service.stats svc in
  check_int "requests counted" (List.length specs) st.Service.requests;
  check_int "no failures" 0 st.Service.failures;
  check_int "all compiled (no cache attached)" (List.length specs)
    st.Service.compiled;
  check_int "no cache hits without a cache" 0 st.Service.cache_hits

(* ---------------- Service engine overrides ---------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Repeated compiles through one warm service under per-request engine
   overrides: the cumulative counters must add up, the summaries must be
   engine-invariant (the conformance suite's bit-identity is what makes
   that sound), and each request's trace must equal a solo compile with
   the same engine. With a persistent cache attached, the first engine
   compiles and every other engine hits the same entry — the cache key
   deliberately excludes the engine, because engines never change the
   result. *)
let test_service_engine_overrides () =
  let engines : Ctx.engine list = [ `Scalar; `Packed ] in
  (* uncached service: every engine compiles, summaries identical *)
  let svc = Service.create (Ctx.with_jobs 2 (Ctx.fresh ())) in
  let sums =
    List.map
      (fun e ->
        let r = Service.compile ~verify_engine:e svc small_spec in
        match r.Service.outcome with
        | Ok s -> (e, s, r.Service.trace)
        | Error d ->
            Alcotest.failf "engine %s failed: %s" (Ctx.engine_name e)
              (Diag.to_string d))
      engines
  in
  (match sums with
  | (_, first, _) :: rest ->
      List.iter
        (fun (e, s, _) ->
          check_bool
            (Printf.sprintf "metrics engine-invariant (%s)"
               (Ctx.engine_name e))
            true
            (s.Pipeline.sum_metrics = first.Pipeline.sum_metrics))
        rest
  | [] -> assert false);
  (* each request's trace equals a solo compile with the same engine *)
  List.iter
    (fun (e, _, trace) ->
      let tr = Trace.create () in
      (match
         Pipeline.run_cached ~verify_engine:e ~trace:tr (Ctx.with_jobs 2 (Ctx.fresh ()))
           small_spec
       with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "solo replay failed: %s" (Diag.to_string d));
      check_string
        (Printf.sprintf "trace matches solo compile (%s)" (Ctx.engine_name e))
        (Trace.fingerprint tr) (Trace.fingerprint trace))
    sums;
  let st = Service.stats svc in
  check_int "requests counted" 2 st.Service.requests;
  check_int "all compiled (no cache)" 2 st.Service.compiled;
  check_int "no cache hits without a cache" 0 st.Service.cache_hits;
  check_int "no failures" 0 st.Service.failures;
  (* cached service: one miss compiles, the other engines hit *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "syndcim-engine-cache-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let ctx =
    match Ctx.with_cache_dir dir (Ctx.with_jobs 2 (Ctx.fresh ())) with
    | Ok c -> c
    | Error d -> Alcotest.failf "cache dir: %s" (Diag.to_string d)
  in
  let svc = Service.create ctx in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      List.iter
        (fun e ->
          match (Service.compile ~verify_engine:e svc small_spec).Service.outcome with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "cached request (%s) failed: %s"
                (Ctx.engine_name e) (Diag.to_string d))
        engines;
      let st = Service.stats svc in
      check_int "cached: requests counted" 2 st.Service.requests;
      check_int "cached: one compile" 1 st.Service.compiled;
      check_int "cached: one hit" 1 st.Service.cache_hits;
      check_int "cached: no failures" 0 st.Service.failures)

(* ---------------- source guard ---------------- *)

(* Nobody below the tests may construct the world by hand: every
   [Library.n40]/[Scl.create] call in lib/, bin/, bench/ and examples/
   must live inside ctx.ml. Tests run from _build/default/test, so walk
   up to the dune-project root (dune copies the sources there). *)
let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let allowlisted rel = rel = "lib/core/ctx.ml"

let offending_lines path =
  let ic = open_in path in
  let bad = ref [] in
  (try
     let line_no = ref 0 in
     while true do
       let line = input_line ic in
       incr line_no;
       let has needle =
         let nl = String.length needle and ll = String.length line in
         let rec at i = i + nl <= ll && (String.sub line i nl = needle || at (i + 1)) in
         at 0
       in
       if has "Library.n40" || has "Scl.create" then
         bad := Printf.sprintf "%s:%d: %s" path !line_no (String.trim line) :: !bad
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !bad

let test_no_bare_world_constructors () =
  match find_root (Sys.getcwd ()) with
  | None -> () (* not running from a checkout: nothing to scan *)
  | Some root ->
      let bad = ref [] in
      let rec walk rel =
        let abs = Filename.concat root rel in
        if Sys.is_directory abs then
          Array.iter
            (fun name -> walk (Filename.concat rel name))
            (Sys.readdir abs)
        else if Filename.check_suffix rel ".ml" && not (allowlisted rel) then
          bad := !bad @ offending_lines abs
      in
      List.iter
        (fun d ->
          if Sys.file_exists (Filename.concat root d) then walk d)
        [ "lib"; "bin"; "bench"; "examples" ];
      if !bad <> [] then
        Alcotest.failf
          "bare world constructors outside Ctx (route through Ctx.of_parts \
           or Ctx.default):\n%s"
          (String.concat "\n" !bad)

(* ---------------- context plumbing smoke ---------------- *)

let test_ctx_builders () =
  let ctx = Ctx.fresh () in
  check_int "default jobs unset" 0
    (match Ctx.jobs ctx with None -> 0 | Some j -> j);
  let ctx4 = Ctx.with_jobs 4 ctx in
  check_int "with_jobs" 4 (match Ctx.jobs ctx4 with Some j -> j | None -> -1);
  check_bool "with_jobs rejects zero" true
    (match Ctx.validate_jobs 0 with Error _ -> true | Ok _ -> false);
  check_bool "validate_jobs accepts positive" true
    (match Ctx.validate_jobs 2 with Ok 2 -> true | _ -> false);
  let e = Ctx.with_engines `Scalar ctx in
  check_string "engine builder" "scalar" (Ctx.engine_name (Ctx.engine e));
  check_string "verify engine follows" "scalar"
    (Ctx.engine_name (Ctx.verify_engine e));
  check_bool "validate_engine parses packed" true
    (Ctx.validate_engine "packed" = Ok `Packed);
  check_bool "validate_engine parses scalar" true
    (Ctx.validate_engine "scalar" = Ok `Scalar);
  check_bool "validate_engine rejects junk" true
    (match Ctx.validate_engine "vliw" with Error _ -> true | Ok _ -> false);
  check_bool "validate_engine rejects auto" true
    (match Ctx.validate_engine "auto" with Error _ -> true | Ok _ -> false);
  (* the removed multi-word spelling is a one-line error naming the
     two engines that exist *)
  (match Ctx.validate_engine "multiword:126" with
  | Ok _ -> Alcotest.fail "validate_engine accepted multiword:126"
  | Error d ->
      let msg = Diag.to_string d in
      check_bool "multiword:126 error names scalar|packed" true
        (contains msg "scalar|packed");
      check_bool "multiword:126 error is one line" false
        (String.contains msg '\n'));
  let s = Ctx.with_seed 42 ctx in
  check_int "seed builder" 42 (Ctx.seed s);
  check_bool "default shares the world" true
    (Ctx.lib (Ctx.default ()) == Ctx.lib (Ctx.default ()));
  check_bool "fresh isolates the world" true
    (Ctx.lib (Ctx.fresh ()) != Ctx.lib (Ctx.default ()))

let () =
  Alcotest.run "ctx"
    [
      ( "determinism",
        [
          Alcotest.test_case "shared vs fresh, jobs 1 and 4" `Slow
            test_shared_vs_fresh_determinism;
        ] );
      ( "scl-memo",
        [ Alcotest.test_case "repeat compile hits" `Quick test_scl_memo_hits ]
      );
      ( "service",
        [
          Alcotest.test_case "parallel request isolation" `Slow
            test_service_isolation;
          Alcotest.test_case "engine overrides: counters and cache hits"
            `Slow test_service_engine_overrides;
        ] );
      ( "guard",
        [
          Alcotest.test_case "no bare world constructors" `Quick
            test_no_bare_world_constructors;
        ] );
      ( "builders",
        [ Alcotest.test_case "ctx builders" `Quick test_ctx_builders ] );
    ]
