(* Execution-context tests: shared-vs-fresh world determinism, the SCL
   memo's hit accounting across repeat compiles, Service request
   isolation under a parallel client, and a source-level guard that no
   layer above the context constructs the world by hand. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

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
  let scl = Ctx.scl ctx in
  let hits1 = Scl.hits scl and misses1 = Scl.misses scl in
  let entries1 = Scl.entries scl in
  check_bool "first compile characterizes" true (misses1 > 0);
  check_bool "memo populated" true (entries1 > 0);
  compile_tight ctx;
  check_bool "second compile hits the memo" true (Scl.hits scl > hits1);
  check_int "second compile adds no misses" misses1 (Scl.misses scl);
  check_int "second compile adds no entries" entries1 (Scl.entries scl)

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
    List.map (fun (_, (r : Pipeline.summary Service.request)) -> r.Service.id) reqs
  in
  check_int "unique request ids" (List.length specs)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (s, (r : Pipeline.summary Service.request)) ->
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

(* Request ids are the service's own sequence, not a registry count: with
   recording switched off they stay unique while the (silenced) counters
   read zero. Specs that fail validation keep the requests cheap. *)
let test_service_ids_without_metrics () =
  let svc = Service.create (Ctx.fresh ()) in
  let bad = { small_spec with Spec.rows = 0 } in
  let ids =
    Metrics.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled true)
      (fun () ->
        Pool.parallel_map ~jobs:3
          (fun _ ->
            let r = Service.compile svc bad in
            (match r.Service.outcome with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "invalid spec compiled");
            r.Service.id)
          (List.init 6 Fun.id))
  in
  check_int "unique request ids" 6 (List.length (List.sort_uniq compare ids));
  check_int "disabled metrics silence the service's counts" 0
    (Service.stats svc).Service.requests

(* ---------------- Service: two requests ---------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Two compiles of one spec through one warm service: the cumulative
   counters must add up, and each request's trace must equal a solo
   compile. With a persistent cache attached, the first request compiles
   and the second hits the entry it stored. *)
let test_service_two_requests () =
  (* uncached service: both requests compile *)
  let svc = Service.create (Ctx.with_jobs 2 (Ctx.fresh ())) in
  let traces =
    List.init 2 (fun _ ->
        let r = Service.compile svc small_spec in
        match r.Service.outcome with
        | Ok _ -> r.Service.trace
        | Error d -> Alcotest.failf "request failed: %s" (Diag.to_string d))
  in
  let solo = Trace.create () in
  (match
     Pipeline.run_cached ~trace:solo (Ctx.with_jobs 2 (Ctx.fresh ()))
       small_spec
   with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "solo replay failed: %s" (Diag.to_string d));
  List.iteri
    (fun i trace ->
      check_string
        (Printf.sprintf "trace %d matches solo compile" i)
        (Trace.fingerprint solo) (Trace.fingerprint trace))
    traces;
  let st = Service.stats svc in
  check_int "requests counted" 2 st.Service.requests;
  check_int "all compiled (no cache)" 2 st.Service.compiled;
  check_int "no cache hits without a cache" 0 st.Service.cache_hits;
  check_int "no failures" 0 st.Service.failures;
  (* cached service: the first request compiles, the second hits *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "syndcim-service-cache-%d" (Unix.getpid ()))
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
      for i = 1 to 2 do
        match (Service.compile svc small_spec).Service.outcome with
        | Ok _ -> ()
        | Error d ->
            Alcotest.failf "cached request %d failed: %s" i (Diag.to_string d)
      done;
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
  check_bool "validate_jobs rejects negative" true
    (match Ctx.validate_jobs (-4) with Error _ -> true | Ok _ -> false);
  check_bool "validate_jobs accepts one" true
    (match Ctx.validate_jobs 1 with Ok 1 -> true | _ -> false);
  check_bool "validate_jobs accepts positive" true
    (match Ctx.validate_jobs 2 with Ok 2 -> true | _ -> false);
  check_bool "default shares the world" true
    (Ctx.lib (Ctx.default ()) == Ctx.lib (Ctx.default ()));
  check_bool "fresh isolates the world" true
    (Ctx.lib (Ctx.fresh ()) != Ctx.lib (Ctx.default ()))

(* The CLI's compile and batch path: the context merges the persisted
   LUT once, then a service runs over it; the file is read exactly once. *)
let test_scl_lut_loaded_once () =
  let loads = Metrics.counter "scl.lut_loads" in
  let path = Filename.temp_file "scl" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "key,delay_ps,area_um2,energy_fj,leakage_nw\nwl/c32,1,2,3,4\n");
  let ctx = Ctx.with_scl_cache path (Ctx.fresh ()) in
  let before = Metrics.counter_value loads in
  check_bool "merged" true (Ctx.load_scl ctx = Ok 1);
  let svc = Service.create ctx in
  ignore (Service.describe svc);
  check_int "one load" 1 (Metrics.counter_value loads - before);
  check_int "one entry" 1 (Scl.entries (Ctx.scl ctx))

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
          Alcotest.test_case "ids unique with metrics off" `Quick
            test_service_ids_without_metrics;
          Alcotest.test_case "two requests: counters and cache hits" `Slow
            test_service_two_requests;
        ] );
      ( "guard",
        [
          Alcotest.test_case "no bare world constructors" `Quick
            test_no_bare_world_constructors;
        ] );
      ( "builders",
        [
          Alcotest.test_case "ctx builders" `Quick test_ctx_builders;
          Alcotest.test_case "scl LUT loaded once" `Quick
            test_scl_lut_loaded_once;
        ] );
    ]
