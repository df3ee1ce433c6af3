(* Staged-pipeline tests: stage-order invariance against a hand-threaded
   reference flow, diagnostic (not exception) failure paths, trace shape
   and determinism across job counts, the retry policy, sign-off of the
   attempt that ships, and the per-compile netlist table. *)

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

(* Hand-threaded reference: the flow before the backend decided retries.
   Every attempt runs all five stages, signoff_verify before backend, and
   the retry comes from the metrics verdict. Verification only reads the
   netlist's function and the ECO loop only resizes cells, so the order
   must not change any reported metric, and a retry decided from the
   same routed timing must not either. *)
let reference_compile (spec : Spec.t) =
  let p = Pipeline.default_policy in
  let budget_ps = Spec.nominal_budget_ps spec lib.Library.node in
  let ( let* ) = Stdlib.Result.bind in
  let rec go boost =
    let* sa = Stage.execute (Pipeline.search_stage lib scl ~boost) spec in
    let* sa = Stage.execute Pipeline.verify_stage sa in
    let* ba =
      Stage.execute
        (Pipeline.backend_stage lib ~style:Floorplan.Sdp ~spec ~budget_ps
           ~max_eco_iters:p.Pipeline.max_eco_iters)
        sa.Pipeline.macro
    in
    let signoff =
      match ba.Pipeline.outcome with
      | Pipeline.Ship s -> s
      | Pipeline.Retry _ -> Alcotest.fail "backend retried without a policy"
    in
    let* power =
      Stage.execute (Pipeline.power_stage lib ~spec)
        (sa.Pipeline.macro, signoff)
    in
    let* v =
      Stage.execute (Pipeline.metrics_stage lib) (sa, signoff, power)
    in
    match
      Pipeline.next_boost p ~boost ~timing_closed:v.Pipeline.timing_closed
        ~search_closed:sa.Pipeline.search.Searcher.timing_closed
    with
    | Some b -> go b
    | None -> Ok (v.Pipeline.metrics, v.Pipeline.timing_closed)
  in
  go 1.0

let test_stage_order_invariance () =
  List.iter
    (fun (name, spec) ->
      let a = Pipeline.artifact_exn (Pipeline.run ctx spec) in
      match reference_compile spec with
      | Error d ->
          Alcotest.failf "%s: reference pipeline failed: %s" name
            (Diag.to_string d)
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

(* NaN and infinity pass a bare [<= 0.0] test: each must be rejected
   before any stage runs, naming the field *)
let test_non_finite_spec_is_diag () =
  let nan = Float.nan and inf = Float.infinity in
  List.iter
    (fun (field, spec) ->
      let trace = Trace.create () in
      match Pipeline.run ~trace ctx spec with
      | Ok _ -> Alcotest.failf "%s: non-finite value compiled" field
      | Error d ->
          check_string (field ^ ": rejected by search") Pipeline.stage_search
            (Diag.stage d);
          check_bool (field ^ ": field in payload") true
            (List.mem_assoc field d.Diag.payload);
          check_int (field ^ ": no stage row") 0 (Trace.length trace))
    [
      ("mac_freq_hz", { small_spec with Spec.mac_freq_hz = nan });
      ("mac_freq_hz", { small_spec with Spec.mac_freq_hz = inf });
      ("weight_update_freq_hz",
        { small_spec with Spec.weight_update_freq_hz = nan });
      ("weight_update_freq_hz",
        { small_spec with Spec.weight_update_freq_hz = inf });
      ("vdd", { small_spec with Spec.vdd = nan });
      ("vdd", { small_spec with Spec.vdd = inf });
    ]

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

let test_backend_injection_is_diag () =
  (* a failure injected into the backend comes back as that stage's
     diagnostic, not as an exception *)
  match Pipeline.run ~inject:Pipeline.stage_backend ctx small_spec with
  | Ok _ -> Alcotest.fail "injected backend failure produced a clean run"
  | Error d -> check_string "stage" Pipeline.stage_backend (Diag.stage d)

(* ---------------- sign-off of the attempt that ships ---------------- *)

(* [Batch.default_spec] is Fig. 8's macro: its routed timing misses twice,
   so the compile takes three attempts. *)
let retried_spec = Batch.default_spec

let test_retried_compile_signs_off_once () =
  let trace = Trace.create () in
  (match Pipeline.run ~trace ctx retried_spec with
  | Error d -> Alcotest.failf "compile failed: %s" (Diag.to_string d)
  | Ok r ->
      let n = List.length r.Pipeline.attempts in
      check_bool "the compile retried" true (n > 1);
      let rows = Trace.rows trace in
      let expected =
        List.concat
          (List.init n (fun _ ->
               [ Pipeline.stage_search; Pipeline.stage_backend ]))
        @ [
            Pipeline.stage_verify; Pipeline.stage_power; Pipeline.stage_metrics;
          ]
      in
      Alcotest.(check (list string))
        "search and backend per attempt, then one sign-off" expected
        (List.map (fun (row : Trace.row) -> row.Trace.stage) rows);
      List.iteri
        (fun i (row : Trace.row) ->
          if row.Trace.stage = Pipeline.stage_backend && i < 2 * (n - 1) then
            check_bool "a discarded backend row says why first" true
              (String.starts_with ~prefix:"post-route miss" row.Trace.note))
        rows;
      let a = r.Pipeline.artifact in
      let so = a.Pipeline.signoff in
      check_int "LVS checked every instance"
        (Ir.n_insts a.Pipeline.macro.Macro_rtl.design)
        so.Post_layout.lvs.Lvs.instances_checked;
      check_bool "LVS clean" true so.Post_layout.lvs.Lvs.clean;
      check_int "no DRC violations" 0 (List.length so.Post_layout.drc_violations));
  match Pipeline.run ~inject:Pipeline.stage_verify ctx retried_spec with
  | Ok _ -> Alcotest.fail "injected sign-off failure produced a clean run"
  | Error d -> check_string "failing stage" Pipeline.stage_verify (Diag.stage d)

(* ---------------- the per-compile netlist table ---------------- *)

let test_netlist_table () =
  let spec = retried_spec in
  let netlists = Eval_cache.netlists () in
  let search boost =
    match
      Stage.execute (Pipeline.search_stage ~netlists lib scl ~boost) spec
    with
    | Ok sa -> sa
    | Error d -> Alcotest.failf "search failed: %s" (Diag.to_string d)
  in
  let first = search 1.0 in
  let retry = search Pipeline.default_policy.Pipeline.boost_step in
  check_bool "the retry reused netlists" true
    ((Eval_cache.netlist_stats netlists).Eval_cache.hits > 0);
  let cfg0 = Spec.initial_config spec in
  let design (sa : Pipeline.search_art) =
    (List.find
       (fun (p : Design_point.t) -> p.Design_point.cfg = cfg0)
       sa.Pipeline.search.Searcher.visited)
      .Design_point.macro.Macro_rtl.design
  in
  let d1 = design first and d2 = design retry in
  check_bool "kinds shared across attempts" true (d1.Ir.kinds == d2.Ir.kinds);
  check_bool "pins shared across attempts" true (d1.Ir.pins == d2.Ir.pins);
  check_bool "drives not shared" false (d1.Ir.drives == d2.Ir.drives);
  (* the ECO resizes the shipped macro in place; the table must not see it *)
  let shipped = first.Pipeline.macro in
  let cfg = shipped.Macro_rtl.cfg in
  let as_built = (Macro_rtl.build lib cfg).Macro_rtl.design.Ir.drives in
  (match
     Stage.execute
       (Pipeline.backend_stage lib ~style:Floorplan.Sdp ~spec
          ~budget_ps:(Spec.nominal_budget_ps spec lib.Library.node)
          ~max_eco_iters:Pipeline.default_policy.Pipeline.max_eco_iters)
       shipped
   with
  | Ok ba ->
      check_bool "the ECO committed upsizes" true (ba.Pipeline.upsized > 0)
  | Error d -> Alcotest.failf "backend failed: %s" (Diag.to_string d));
  let again = Eval_cache.netlist netlists lib cfg in
  check_bool "a new evaluation starts from the as-built drives" true
    (Bytes.equal again.Macro_rtl.design.Ir.drives as_built);
  let p_table =
    Eval_cache.evaluate (Eval_cache.create ~netlists ()) lib spec cfg
  and p_fresh = Design_point.evaluate lib spec cfg in
  check_bool "same timing as a fresh build" true
    (p_table.Design_point.crit_ps = p_fresh.Design_point.crit_ps
    && p_table.Design_point.upsized = p_fresh.Design_point.upsized)

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

let missed ?(search_closed = true) boost =
  Pipeline.next_boost Pipeline.default_policy ~boost ~timing_closed:false
    ~search_closed

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
          Alcotest.test_case "non-finite clock or voltage is a diagnostic"
            `Quick test_non_finite_spec_is_diag;
          Alcotest.test_case "guard converts Bench_error" `Quick
            test_guard_converts_bench_error;
          Alcotest.test_case "backend injection is a diagnostic" `Quick
            test_backend_injection_is_diag;
        ] );
      ( "signoff",
        [
          Alcotest.test_case "a retried compile signs off once" `Slow
            test_retried_compile_signs_off_once;
        ] );
      ( "netlists",
        [
          Alcotest.test_case "one build per config per compile" `Slow
            test_netlist_table;
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
        ] );
    ]
