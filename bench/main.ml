(* SynDCIM gate benchmark.

   Times the four measurements CI gates on and writes them to
   BENCH_RESULTS.json in the invocation directory:

     packed_sim        bit-sliced vs scalar lane-cycles/s   (gate >= 8x)
     packed_signoff    packed vs scalar Testbench.verify     (gate >= 4x)
     service_warm      warm Service repeat vs cold compile   (gate > 1x)
     metrics_overhead  search with the registry on vs off    (gate <= 5 %)

   The paper's tables and figures are reprinted by `syndcim exp`; the
   compiler's end-to-end and per-layer timings live in perfbench/.

   Run with: dune exec bench/main.exe *)

let banner title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" bar title bar

(* the metrics-overhead gate: full instrumentation may cost at most this
   much over the registry-disabled run of the same search workload *)
let metrics_max_overhead_pct = 5.0

(* [best_of n f] — the fastest of [n] timed runs of [f], with the last
   run's result: the minimum keeps the CI bounds meaningful on a noisy
   shared runner *)
let best_of n f =
  let best = ref infinity and last = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    last := Some (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  (Option.get !last, !best)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* the smallest canonical macro, shared by the two engine gates *)
let macro16 lib =
  Macro_rtl.build lib
    (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1 ~input_prec:Precision.int8
       ~weight_prec:Precision.int8)

let spec16 = { Spec.fig8 with Spec.rows = 16; cols = 16; mcr = 1 }

(* Simulated lane-cycles per second: the scalar engine advances 1 lane
   per cycle, the packed engine 63. Returns (scalar, packed). *)
let packed_sim lib =
  banner
    (Printf.sprintf
       "Packed simulation — scalar vs %d-lane bit-sliced MAC streaming"
       Sim_multiword.word_lanes);
  let m = macro16 lib and macs = 200 in
  let rng = Rng.create 0xB175 in
  let scalar_sim = Sim.create m.Macro_rtl.design in
  Testbench.load_weights m scalar_sim ~copy:0
    (Testbench.random_weights rng m ~density:0.5);
  let scalar_cycles, scalar_s =
    best_of 3 (fun () ->
        Sim.reset_stats scalar_sim;
        Testbench.run_stream m scalar_sim ~rng ~macs ~input_density:0.5;
        scalar_sim.Sim.cycles)
  in
  let module E = Slice.Packed in
  let module B = Testbench.Sliced (E) in
  let psim = E.create m.Macro_rtl.design in
  B.load_weights_lanes m psim ~copy:0
    (Array.init E.max_lanes (fun _ ->
         Testbench.random_weights rng m ~density:0.5));
  let packed_cycles, packed_s =
    best_of 3 (fun () ->
        E.reset_stats psim;
        B.run_stream m psim ~rng ~macs ~input_density:0.5;
        E.cycles psim)
  in
  let scalar_cps = float_of_int scalar_cycles /. scalar_s in
  let packed_cps =
    float_of_int (packed_cycles * E.max_lanes) /. packed_s
  in
  Printf.printf
    "16x16 INT8, %d MACs/run, best of 3:\n\
    \  scalar: %d cycles in %.3f s  = %.3g lane-cycles/s\n\
    \  packed: %d cycles x %d lanes in %.3f s = %.3g lane-cycles/s\n\
     speedup: %.1fx\n\
     %!"
    macs scalar_cycles scalar_s scalar_cps packed_cycles E.max_lanes
    packed_s packed_cps
    (ratio packed_cps scalar_cps);
  (scalar_cps, packed_cps)

(* Sign-off MAC checks per second through Testbench.verify. Returns
   (batches, scalar, packed). *)
let packed_signoff lib =
  banner "Packed signoff — Testbench.verify, scalar vs packed engine";
  let m = macro16 lib and batches = 63 in
  let checks_ps engine =
    let (), s =
      best_of 3 (fun () -> Testbench.verify ~engine m ~seed:0xACC ~batches)
    in
    (s, float_of_int batches /. s)
  in
  let scalar_s, sc = checks_ps `Scalar in
  let packed_s, pc = checks_ps `Packed in
  Printf.printf
    "16x16 INT8, %d MAC checks vs golden, best of 3:\n\
    \  scalar: %.3f s = %.3g checks/s\n\
    \  packed: %.3f s = %.3g checks/s\n\
     speedup: %.1fx\n\
     %!"
    batches scalar_s sc packed_s pc (ratio pc sc);
  (batches, sc, pc)

(* The one-shot cost of a cold CLI invocation against the steady-state
   latency of a warm Service repeat request. Returns (cold, warm). *)
let service_warm () =
  banner "Service — cold-context compile vs warm-service repeat compile";
  let cold_s =
    (* a fresh library + empty SCL memo, no compile cache *)
    let t0 = Unix.gettimeofday () in
    (match Pipeline.run_cached (Ctx.fresh ()) spec16 with
    | Ok _ -> ()
    | Error d -> raise (Diag.Failed d));
    Unix.gettimeofday () -. t0
  in
  let warm_s =
    let cache_root =
      Filename.concat (Filename.get_temp_dir_name ())
        "syndcim-bench-svc-cache"
    in
    let svc_ctx =
      match Ctx.with_cache_dir cache_root (Ctx.fresh ()) with
      | Ok c -> c
      | Error d -> raise (Diag.Failed d)
    in
    let svc = Service.create svc_ctx in
    (* request 1 warms the world (characterizes the SCL, fills the
       compile cache); request 2 is the steady-state service latency *)
    ignore (Service.compile svc spec16);
    let warm = Service.compile svc spec16 in
    (match warm.Service.outcome with
    | Ok _ -> ()
    | Error d -> raise (Diag.Failed d));
    Printf.printf "%s\n" (Service.describe svc);
    warm.Service.wall_s
  in
  Printf.printf
    "16x16 INT8 spec:\n\
    \  cold context (fresh library, no cache): %.3f s\n\
    \  warm service (repeat request):          %.4f s\n\
     speedup: %.1fx\n\
     %!"
    cold_s warm_s (ratio cold_s warm_s);
  (cold_s, warm_s)

(* A full MSO search with the metrics registry on, then off. Returns
   (instrumented, baseline). *)
let metrics_overhead ctx =
  banner "Metrics overhead — full MSO search, registry on vs off";
  let lib = Ctx.lib ctx and scl = Ctx.scl ctx in
  let run () =
    ignore (Searcher.search ~cache:(Eval_cache.create ()) lib scl spec16)
  in
  (* one throwaway run warms the SCL memo so both arms measure search
     evaluation, not first-touch characterization *)
  run ();
  let reps = 3 in
  let (), on_s = best_of reps run in
  Metrics.set_enabled false;
  let (), off_s = best_of reps run in
  Metrics.set_enabled true;
  Printf.printf
    "16x16 INT8 search, best of %d:\n\
    \  instrumented: %.4f s\n\
    \  disabled:     %.4f s\n\
     overhead: %.2f %% (gate: <= %.1f %%)\n\
     %!"
    reps on_s off_s
    (ratio (on_s -. off_s) off_s *. 100.0)
    metrics_max_overhead_pct;
  (on_s, off_s)

let () =
  let ctx = Ctx.default () in
  let lib = Ctx.lib ctx in
  let scalar_cps, packed_cps = packed_sim lib in
  let batches, scalar_checks, packed_checks = packed_signoff lib in
  let cold_s, warm_s = service_warm () in
  let on_s, off_s = metrics_overhead ctx in
  let gates =
    [
      Printf.sprintf
        "\"packed_sim\": {\"lanes\": %d, \"scalar_lane_cps\": %.6g, \
         \"packed_lane_cps\": %.6g, \"speedup\": %.6g}"
        Sim_multiword.word_lanes scalar_cps packed_cps
        (ratio packed_cps scalar_cps);
      Printf.sprintf
        "\"packed_signoff\": {\"batches\": %d, \"scalar_checks_ps\": %.6g, \
         \"packed_checks_ps\": %.6g, \"speedup\": %.6g}"
        batches scalar_checks packed_checks
        (ratio packed_checks scalar_checks);
      Printf.sprintf
        "\"service_warm\": {\"cold_s\": %.6g, \"warm_s\": %.6g, \
         \"speedup\": %.6g}"
        cold_s warm_s (ratio cold_s warm_s);
      Printf.sprintf
        "\"metrics_overhead\": {\"instrumented_s\": %.6g, \"baseline_s\": \
         %.6g, \"overhead_pct\": %.6g, \"max_pct\": %.1f}"
        on_s off_s
        (ratio (on_s -. off_s) off_s *. 100.0)
        metrics_max_overhead_pct;
    ]
  in
  let oc = open_out "BENCH_RESULTS.json" in
  Printf.fprintf oc "{\n  %s\n}\n" (String.concat ",\n  " gates);
  close_out oc;
  Printf.printf "\nwrote BENCH_RESULTS.json\n%!"
