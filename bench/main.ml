(* SynDCIM gate benchmark.

   Times the five measurements CI gates on and writes them to
   BENCH_RESULTS.json in the invocation directory:

     packed_sim        bit-sliced vs scalar lane-cycles/s   (gate >= 8x)
     packed_signoff    packed vs scalar Testbench.verify     (gate >= 4x)
     service_warm      warm Service repeat vs cold compile   (gate > 1x,
                       and the repeat must be a cache hit)
     metrics_overhead  search with the registry on vs off,   (gate <= 5 %)
                       median of 21 alternated pairs
     netlist_build     Fig. 8 Macro_rtl.build: major-heap words
                       allocated per instance, and its time  (gate <= 18
                       words; allocation counts are deterministic, so
                       this gate reads no clock)

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

(* Simulated lane-cycles per second: the scalar oracle advances 1 lane
   per cycle, the packed engine 63. Returns (scalar, packed). *)
let packed_sim lib =
  banner
    (Printf.sprintf
       "Packed simulation — scalar vs %d-lane bit-sliced MAC streaming"
       Sim_sliced.word_lanes);
  let m = macro16 lib and macs = 200 in
  let rng = Rng.create 0xB175 in
  let scalar_sim = Sim.create m.Macro_rtl.design in
  Oracle.Bench.load_weights m scalar_sim ~copy:0
    (Testbench.random_weights rng m ~density:0.5);
  let scalar_cycles, scalar_s =
    best_of 3 (fun () ->
        Sim.reset_stats scalar_sim;
        Oracle.Bench.Lanes.run_stream m scalar_sim ~rng ~macs
          ~input_density:0.5;
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

(* Sign-off MAC checks per second. The packed engine runs the sign-off
   job builder (Testbench.Sliced.verify), 63 MACs per fresh simulator.
   The scalar oracle checks the same MACs one at a time on one simulator
   loaded once, so the gate compares the engines' per-MAC cost and not
   the checker's chunking (which would give the one-lane oracle a fresh
   simulator per MAC). Returns (batches, scalar, packed). *)
let packed_signoff lib =
  banner "Packed signoff — Testbench.verify, scalar oracle vs packed engine";
  let m = macro16 lib and batches = 63 in
  let (), scalar_s =
    best_of 3 (fun () ->
        (* Sliced.verify's draw order: the weights, then every input *)
        let rng = Rng.create 0xACC in
        let sim = Sim.create m.Macro_rtl.design in
        let weights = Testbench.random_weights rng m ~density:1.0 in
        Oracle.Bench.load_weights m sim ~copy:0 weights;
        for _ = 1 to batches do
          let inputs =
            Array.init m.Macro_rtl.cfg.Macro_rtl.rows (fun _ ->
                Testbench.random_input rng m ~density:1.0)
          in
          ignore (Oracle.Bench.check_mac m sim ~weights ~inputs)
        done)
  in
  let module B = Testbench.Sliced (Slice.Packed) in
  let (), packed_s = best_of 3 (fun () -> B.verify m ~seed:0xACC ~batches) in
  let sc = float_of_int batches /. scalar_s
  and pc = float_of_int batches /. packed_s in
  Printf.printf
    "16x16 INT8, %d MAC checks vs golden, best of 3:\n\
    \  scalar: %.3f s = %.3g checks/s\n\
    \  packed: %.3f s = %.3g checks/s\n\
     speedup: %.1fx\n\
     %!"
    batches scalar_s sc packed_s pc (ratio pc sc);
  (batches, sc, pc)

(* [with_temp_store f] — [f dir] on a fresh, empty compile-cache
   directory that is removed afterwards, so every run (and every
   concurrent run) starts cold. The store is flat: entries and temps. *)
let with_temp_store f =
  let dir = Filename.temp_dir "syndcim-bench-svc-cache" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* The one-shot cost of a cold CLI invocation against the steady-state
   latency of a warm Service repeat request. Returns (cold, warm,
   warm_hit), where [warm_hit] says the repeat was served from the
   compile cache. *)
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
  let warm_s, warm_hit =
    with_temp_store (fun cache_root ->
        let svc_ctx =
          match Ctx.with_cache_dir cache_root (Ctx.fresh ()) with
          | Ok c -> c
          | Error d -> raise (Diag.Failed d)
        in
        let svc = Service.create svc_ctx in
        (* request 1 warms the world (characterizes the SCL, fills the
           empty compile cache); request 2 is the steady-state service
           latency *)
        ignore (Service.compile svc spec16);
        let warm = Service.compile svc spec16 in
        let hit =
          match warm.Service.outcome with
          | Ok s -> s.Pipeline.sum_cache = Pipeline.Cache_hit
          | Error d -> raise (Diag.Failed d)
        in
        Printf.printf "%s\n" (Service.describe svc);
        (warm.Service.wall_s, hit))
  in
  Printf.printf
    "16x16 INT8 spec:\n\
    \  cold context (fresh library, no cache): %.3f s\n\
    \  warm service (repeat request):          %.3f ms (%s)\n\
     speedup: %.1fx\n\
     %!"
    cold_s (warm_s *. 1e3)
    (if warm_hit then "cache hit" else "NOT a cache hit")
    (ratio cold_s warm_s);
  (cold_s, warm_s, warm_hit)

(* The median of a non-empty list. *)
let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Full MSO searches with the metrics registry on and off, in [pairs]
   back-to-back pairs whose arm order alternates, so drift in the host's
   speed lands on both arms alike. Each arm times [reps] searches. Returns
   (median on, median off, median per-pair overhead in %). *)
let metrics_overhead ctx =
  banner "Metrics overhead — full MSO search, registry on vs off";
  let lib = Ctx.lib ctx and scl = Ctx.scl ctx in
  let run () =
    ignore (Searcher.search ~cache:(Eval_cache.create ()) lib scl spec16)
  in
  let pairs = 21 and reps = 4 in
  let arm enabled =
    Metrics.set_enabled enabled;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      run ()
    done;
    Metrics.set_enabled true;
    Unix.gettimeofday () -. t0
  in
  (* one throwaway run warms the SCL memo so both arms measure search
     evaluation, not first-touch characterization *)
  run ();
  let timed =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let on = arm true in
          (on, arm false)
        else
          let off = arm false in
          (arm true, off))
  in
  let on_s = median (List.map fst timed) and off_s = median (List.map snd timed) in
  let pct =
    median (List.map (fun (on, off) -> ratio (on -. off) off *. 100.0) timed)
  in
  Printf.printf
    "16x16 INT8 search, %d alternated pairs of %d searches per arm:\n\
    \  instrumented: %.4f s (median)\n\
    \  disabled:     %.4f s (median)\n\
     overhead: %.2f %% (median per pair; gate: <= %.1f %%)\n\
     %!"
    pairs reps on_s off_s pct metrics_max_overhead_pct;
  (on_s, off_s, pct)

(* One Fig. 8 netlist build: its instance count, the major-heap words it
   allocates per instance, and the best of five build times. *)
let netlist_build lib =
  banner "Netlist build — Fig. 8 initial configuration";
  let cfg = Spec.initial_config Spec.fig8 in
  let n = Ir.n_insts (Macro_rtl.build lib cfg).Macro_rtl.design in
  Gc.full_major ();
  let _, _, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (Macro_rtl.build lib cfg));
  let _, _, major1 = Gc.counters () in
  let words = (major1 -. major0) /. float_of_int n in
  let _, build_s = best_of 5 (fun () -> ignore (Macro_rtl.build lib cfg)) in
  Printf.printf
    "%d instances, %.2f major words per instance (gate: <= 18), %.2f ms \
     (best of 5)\n%!"
    n words (build_s *. 1e3);
  (n, words, build_s)

let () =
  let ctx = Ctx.default () in
  let lib = Ctx.lib ctx in
  let scalar_cps, packed_cps = packed_sim lib in
  let batches, scalar_checks, packed_checks = packed_signoff lib in
  let cold_s, warm_s, warm_hit = service_warm () in
  let on_s, off_s, overhead_pct = metrics_overhead ctx in
  let insts, words, build_s = netlist_build lib in
  let gates =
    [
      Printf.sprintf
        "\"packed_sim\": {\"lanes\": %d, \"scalar_lane_cps\": %.6g, \
         \"packed_lane_cps\": %.6g, \"speedup\": %.6g}"
        Sim_sliced.word_lanes scalar_cps packed_cps
        (ratio packed_cps scalar_cps);
      Printf.sprintf
        "\"packed_signoff\": {\"batches\": %d, \"scalar_checks_ps\": %.6g, \
         \"packed_checks_ps\": %.6g, \"speedup\": %.6g}"
        batches scalar_checks packed_checks
        (ratio packed_checks scalar_checks);
      Printf.sprintf
        "\"service_warm\": {\"cold_s\": %.6g, \"warm_s\": %.6g, \
         \"speedup\": %.6g, \"warm_hit\": %b}"
        cold_s warm_s (ratio cold_s warm_s) warm_hit;
      Printf.sprintf
        "\"metrics_overhead\": {\"instrumented_s\": %.6g, \"baseline_s\": \
         %.6g, \"overhead_pct\": %.6g, \"max_pct\": %.1f}"
        on_s off_s overhead_pct metrics_max_overhead_pct;
      Printf.sprintf
        "\"netlist_build\": {\"insts\": %d, \"major_words_per_inst\": %.6g, \
         \"ms\": %.6g}"
        insts words (build_s *. 1e3);
    ]
  in
  let oc = open_out "BENCH_RESULTS.json" in
  Printf.fprintf oc "{\n  %s\n}\n" (String.concat ",\n  " gates);
  close_out oc;
  Printf.printf "\nwrote BENCH_RESULTS.json\n%!"
