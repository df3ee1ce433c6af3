(* Staged-pipeline tests: stage-order invariance against the monolithic
   entry point, diagnostic (not exception) failure paths, and trace
   determinism across job counts. *)

let lib = Library.n40 ()
let scl = Scl.create lib
let ctx = Ctx.of_parts lib scl
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

(* ---------------- stage-order invariance ---------------- *)

(* Hand-threaded pipeline with the two independent stages swapped:
   backend before signoff_verify. Verification only reads the netlist's
   function and the ECO loop only resizes cells, so the swap must not
   change any reported metric. *)
let swapped_compile (spec : Spec.t) =
  let p = Pipeline.default_policy in
  let budget_ps = Spec.nominal_budget_ps spec lib.Library.node in
  let ( let* ) = Stdlib.Result.bind in
  let rec go boost =
    let* sa = Stage.execute (Pipeline.search_stage lib scl ~boost) spec in
    let* ba =
      Stage.execute
        (Pipeline.backend_stage lib ~style:Floorplan.Sdp ~spec ~budget_ps
           ~max_eco_iters:p.Pipeline.max_eco_iters)
        sa.Pipeline.macro
    in
    let* sa = Stage.execute (Pipeline.verify_stage ~enabled:true ()) sa in
    let* power =
      Stage.execute (Pipeline.power_stage lib ~spec)
        (sa.Pipeline.macro, ba.Pipeline.signoff)
    in
    let* v = Stage.execute (Pipeline.metrics_stage lib ~policy:p) (sa, ba, power) in
    match v.Pipeline.retry_boost with
    | Some b -> go b
    | None -> Ok (v.Pipeline.metrics, v.Pipeline.timing_closed)
  in
  go 1.0

let test_stage_order_invariance () =
  List.iter
    (fun (name, spec) ->
      let a = Pipeline.artifact_exn (Pipeline.run ctx spec) in
      match swapped_compile spec with
      | Error d -> Alcotest.failf "%s: swapped pipeline failed: %s" name (Diag.to_string d)
      | Ok (m, closed) ->
          check_bool (name ^ " metrics identical") true
            (m = a.Pipeline.metrics);
          check_bool (name ^ " verdict identical") true
            (closed = a.Pipeline.timing_closed))
    Snapshot.canonical_specs

(* ---------------- diagnostics instead of exceptions ---------------- *)

let test_injected_failure_is_diag () =
  match Pipeline.run ~inject:Pipeline.stage_verify ctx small_spec with
  | Ok _ -> Alcotest.fail "injected failure produced a clean run"
  | Error d ->
      check_string "failing stage" Pipeline.stage_verify (Diag.stage d);
      check_bool "marked injected" true
        (List.mem_assoc "injected" d.Diag.payload);
      check_bool "is an error" true (Diag.is_error d)

let test_bad_spec_is_diag () =
  match Pipeline.run ctx { small_spec with Spec.mcr = 3 } with
  | Ok _ -> Alcotest.fail "mcr=3 compiled"
  | Error d ->
      check_string "rejected by search" Pipeline.stage_search (Diag.stage d);
      check_bool "spec context attached" true (d.Diag.context <> None)

let test_guard_converts_bench_error () =
  let r =
    Diag.guard ~stage:"bench" ~spec:small_spec (fun () ->
        raise
          (Testbench.Bench_error
             { op = "run_mac_auto"; detail = "done never asserted" }))
  in
  match r with
  | Ok () -> Alcotest.fail "guard swallowed nothing"
  | Error d ->
      check_string "stage" "bench" (Diag.stage d);
      check_bool "op in payload" true
        (List.assoc_opt "op" d.Diag.payload = Some "run_mac_auto");
      check_bool "detail in message" true
        (Diag.message d = "run_mac_auto: done never asserted")

let test_failing_verify_raises_wrapper_exn () =
  (* the Compiler wrapper still surfaces verify failures as the legacy
     Verification_failed, but the pipeline itself returns a Diag *)
  match Pipeline.run ~inject:Pipeline.stage_backend ctx small_spec with
  | Ok _ -> Alcotest.fail "injected backend failure produced a clean run"
  | Error d -> check_string "stage" Pipeline.stage_backend (Diag.stage d)

(* ---------------- trace shape and determinism ---------------- *)

let test_trace_has_all_stages () =
  let trace = Trace.create () in
  match Pipeline.run ~trace ctx small_spec with
  | Error d -> Alcotest.failf "compile failed: %s" (Diag.to_string d)
  | Ok r ->
      let rows = Trace.rows trace in
      check_int "one attempt, five rows"
        (5 * List.length r.Pipeline.attempts)
        (List.length rows);
      let stages = List.map (fun (row : Trace.row) -> row.Trace.stage) rows in
      List.iteri
        (fun i s ->
          check_string
            (Printf.sprintf "row %d stage" i)
            (List.nth Pipeline.stage_names (i mod 5))
            s)
        stages;
      List.iter
        (fun (row : Trace.row) ->
          check_bool (row.Trace.stage ^ " ok") true row.Trace.ok;
          match row.Trace.eco_iters with
          | Some n -> check_bool "eco within cap" true (n <= 3)
          | None -> ())
        rows

let trace_fingerprints ~jobs =
  Pool.parallel_map ~jobs
    (fun (_, spec) ->
      let trace = Trace.create () in
      ignore (Pipeline.run ~trace ctx spec);
      Trace.fingerprint trace)
    Snapshot.canonical_specs

let test_trace_determinism_across_jobs () =
  let serial = trace_fingerprints ~jobs:1 in
  let parallel = trace_fingerprints ~jobs:4 in
  List.iteri
    (fun i (s, p) ->
      check_string (Printf.sprintf "fingerprint %d" i) s p)
    (List.combine serial parallel)

(* The retry decision, branch by branch: it checks the failed attempt's
   boost, so the defaults run attempts at x1.0, x1.12 and x1.2544, one
   step past [max_boost = 1.2]. *)
let check_boost name expected actual =
  Alcotest.(check (option (float 0.0))) name expected actual

let missed ?(policy = Pipeline.default_policy) ?(search_closed = true) boost =
  Pipeline.next_boost policy ~boost ~timing_closed:false ~search_closed

let test_retry_first () =
  check_boost "x1.0 retries at x1.12" (Some 1.12) (missed 1.0)

let test_retry_second () =
  check_boost "x1.12 retries one step past max_boost" (Some (1.12 *. 1.12))
    (missed 1.12);
  check_bool "past max_boost" true (1.12 *. 1.12 > 1.2)

let test_retry_exhausted () =
  check_boost "x1.2544 is the last attempt" None (missed (1.12 *. 1.12))

let test_retry_closed () =
  check_boost "closed timing never retries" None
    (Pipeline.next_boost Pipeline.default_policy ~boost:1.0
       ~timing_closed:true ~search_closed:true)

let test_retry_search_missed () =
  check_boost "a search that missed pre-layout never retries" None
    (missed ~search_closed:false 1.0)

let test_retry_disabled () =
  check_boost "retry = false never retries" None
    (missed ~policy:{ Pipeline.default_policy with Pipeline.retry = false } 1.0)

let () =
  Alcotest.run "pipeline"
    [
      ( "order",
        [
          Alcotest.test_case "stage-order invariance" `Slow
            test_stage_order_invariance;
        ] );
      ( "diag",
        [
          Alcotest.test_case "injected failure is a diagnostic" `Quick
            test_injected_failure_is_diag;
          Alcotest.test_case "bad spec is a diagnostic" `Quick
            test_bad_spec_is_diag;
          Alcotest.test_case "guard converts Bench_error" `Quick
            test_guard_converts_bench_error;
          Alcotest.test_case "backend injection is a diagnostic" `Quick
            test_failing_verify_raises_wrapper_exn;
        ] );
      ( "trace",
        [
          Alcotest.test_case "all five stage rows, in order" `Quick
            test_trace_has_all_stages;
          Alcotest.test_case "fingerprints stable for any job count" `Slow
            test_trace_determinism_across_jobs;
        ] );
      ( "retry",
        [
          Alcotest.test_case "x1.0 -> x1.12" `Quick test_retry_first;
          Alcotest.test_case "x1.12 -> x1.2544" `Quick test_retry_second;
          Alcotest.test_case "x1.2544 -> none" `Quick test_retry_exhausted;
          Alcotest.test_case "closed -> none" `Quick test_retry_closed;
          Alcotest.test_case "search not closed -> none" `Quick
            test_retry_search_missed;
          Alcotest.test_case "retry disabled -> none" `Quick
            test_retry_disabled;
        ] );
    ]
