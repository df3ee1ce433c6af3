(* Per-layer metrics of the traced run.

   Every number comes from outside the program: the stage rows it
   already records ({!Trace}), the counters of its metrics registry
   ({!Metrics}), and replays that call each layer's public functions
   after the timed phase. Layers a workload does not exercise report 0. *)

(* Name and unit of every per-layer metric, in print order. *)
let catalogue =
  [
    ("pipeline.search.ms", "ms");
    ("pipeline.signoff_verify.ms", "ms");
    ("pipeline.backend.ms", "ms");
    ("pipeline.power.ms", "ms");
    ("pipeline.metrics.ms", "ms");
    ("pipeline.search.share", "ratio");
    ("pipeline.signoff_verify.share", "ratio");
    ("pipeline.backend.share", "ratio");
    ("pipeline.power.share", "ratio");
    ("pipeline.metrics.share", "ratio");
    ("pipeline.unattributed.share", "ratio");
    ("pipeline.attempts_per_spec", "count");
    ("pipeline.eco_iters_per_spec", "count");
    ("searcher.evals_per_spec", "count");
    ("searcher.visited_per_spec", "count");
    ("eval_cache.hit_ratio", "ratio");
    ("design_point.evaluate.ms", "ms");
    ("macro_rtl.build.ms", "ms");
    ("sizing.speed_up.ms", "ms");
    ("ir.fanout_loads.ms", "ms");
    ("sta.analyze.ms", "ms");
    ("stats.of_design.ms", "ms");
    ("design_point.measure_power.ms", "ms");
    ("macro.insts", "count");
    ("sizing.upsized_per_eval", "count");
    ("search.kernel_coverage", "ratio");
    ("floorplan.sdp.ms", "ms");
    ("route.build.ms", "ms");
    ("drc.check.ms", "ms");
    ("lvs.check.ms", "ms");
    ("sta.analyze_wire.ms", "ms");
    ("post_layout.run_calls_per_spec", "count");
    ("post_layout.power.ms", "ms");
    ("testbench.verify.ms", "ms");
    ("sim.lane_cycles_per_s", "1/s");
    ("diffcheck.checks_per_s", "1/s");
    ("scl.characterizations", "count");
    ("scl.hit_ratio", "ratio");
    ("batch.item_share", "ratio");
    ("disk_cache.lookup_us_p50", "us");
    ("disk_cache.store_us_p50", "us");
    ("disk_cache.library_fingerprint_us", "us");
    ("disk_cache.hit_ratio", "ratio");
    ("service.hit_ms_p50", "ms");
    ("service.miss_ms_p50", "ms");
    ("service.request_p99_ms", "ms");
    ("service.overhead.share", "ratio");
    ("service.duplicate_compiles", "count");
    ("campaign.build.share", "ratio");
    ("campaign.shrink.ms", "ms");
    ("campaign.shrink_steps", "count");
    ("metamorph.ms", "ms");
    ("quality.tops_per_w_geomean", "TOPS/W");
    ("quality.tops_per_mm2_geomean", "TOPS/mm2");
    ("quality.timing_closed_ratio", "ratio");
    ("process.peak_rss_mb", "MB");
    ("trace.spans", "count");
    ("trace.overhead.share", "ratio");
    ("trace.attribution_failures", "count");
  ]

(* [complete kv] — every catalogue metric with its unit, in catalogue
   order, 0 where [kv] has no value. A name outside the catalogue is a
   benchmark bug. *)
let complete (kv : (string * float) list) : (string * float * string) list =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k catalogue) then
        invalid_arg ("Layers.complete: unknown metric " ^ k))
    kv;
  List.map
    (fun (name, unit) ->
      (name, Option.value (List.assoc_opt name kv) ~default:0.0, unit))
    catalogue

let ratio = Timing.ratio

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let counter name = float_of_int (Metrics.counter_value (Metrics.counter name))

(* Counters accumulated since the registry was last reset; [compiled] is
   the number of specs that ran the pipeline. *)
let registry ~compiled =
  let n = float_of_int compiled in
  let eh = counter "cache.eval.hits" and em = counter "cache.eval.misses" in
  let sh = counter "cache.scl.hits" and sm = counter "cache.scl.misses" in
  let dh = counter "cache.disk.hits"
  and dm = counter "cache.disk.misses" +. counter "cache.disk.corrupt" in
  [
    ("searcher.evals_per_spec", ratio em n);
    ("searcher.visited_per_spec", ratio (eh +. em) n);
    ("eval_cache.hit_ratio", ratio eh (eh +. em));
    ("scl.characterizations", sm);
    ("scl.hit_ratio", ratio sh (sh +. sm));
    ("disk_cache.hit_ratio", ratio dh (dh +. dm));
  ]

(* ------------------------------------------------------------------ *)
(* Stage rows                                                          *)
(* ------------------------------------------------------------------ *)

(* One timed operation and the stage rows the program recorded for it. *)
type op = { wall_s : float; rows : Trace.row list }

let rows_ms rows =
  List.fold_left (fun acc (r : Trace.row) -> acc +. r.Trace.wall_ms) 0.0 rows

(* A backend stage calls [Post_layout.run] once, once per ECO iteration,
   and once more to restore a rolled-back iteration. *)
let post_layout_calls (r : Trace.row) =
  1
  + Option.value r.Trace.eco_iters ~default:0
  + if String.ends_with ~suffix:"last ECO rolled back" r.Trace.note then 1
    else 0

(* Share of the operations' wall time that no stage row accounts for. *)
let unattributed ~rows_ms ~wall_ms =
  ("pipeline.unattributed.share", if wall_ms = 0.0 then 0.0 else 1.0 -. (rows_ms /. wall_ms))

let unattributed_of (ops : op list) =
  unattributed
    ~rows_ms:(List.fold_left (fun acc o -> acc +. rows_ms o.rows) 0.0 ops)
    ~wall_ms:(List.fold_left (fun acc o -> acc +. (o.wall_s *. 1e3)) 0.0 ops)

(* Stage times, attempts and ECO work of the operations that ran the
   pipeline, per compiled spec. *)
let pipeline (ops : op list) =
  let ran_pipeline o =
    List.exists (fun (r : Trace.row) -> r.Trace.stage = Pipeline.stage_search) o.rows
  in
  let compiled = List.filter ran_pipeline ops in
  let n = float_of_int (List.length compiled) in
  let compiled_rows = List.concat_map (fun o -> o.rows) compiled in
  let compiled_ms =
    List.fold_left (fun acc o -> acc +. (o.wall_s *. 1e3)) 0.0 compiled
  in
  let rows_of stage =
    List.filter (fun (r : Trace.row) -> r.Trace.stage = stage) compiled_rows
  in
  let per_stage =
    List.concat_map
      (fun stage ->
        let ms = rows_ms (rows_of stage) in
        [
          (Printf.sprintf "pipeline.%s.ms" stage, ratio ms n);
          (Printf.sprintf "pipeline.%s.share" stage, ratio ms compiled_ms);
        ])
      Pipeline.stage_names
  in
  let backend = rows_of Pipeline.stage_backend in
  let sum_int f = float_of_int (List.fold_left (fun a r -> a + f r) 0 backend) in
  per_stage
  @ [
      ( "pipeline.attempts_per_spec",
        ratio (float_of_int (List.length (rows_of Pipeline.stage_search))) n );
      ( "pipeline.eco_iters_per_spec",
        ratio (sum_int (fun r -> Option.value r.Trace.eco_iters ~default:0)) n );
      ("post_layout.run_calls_per_spec", ratio (sum_int post_layout_calls) n);
    ]

(* Size and quality of the designs a workload produced. *)
let designs (sums : Pipeline.summary list) =
  let arr f = Array.of_list (List.map f sums) in
  let m (s : Pipeline.summary) = s.Pipeline.sum_metrics in
  [
    ("macro.insts", Timing.mean (arr (fun s -> float_of_int s.Pipeline.sum_insts)));
    ( "quality.tops_per_w_geomean",
      Timing.geomean (arr (fun s -> (m s).Pipeline.tops_per_w)) );
    ( "quality.tops_per_mm2_geomean",
      Timing.geomean (arr (fun s -> (m s).Pipeline.tops_per_mm2)) );
    ( "quality.timing_closed_ratio",
      Timing.mean
        (arr (fun s -> if s.Pipeline.sum_timing_closed then 1.0 else 0.0)) );
  ]

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)
(* ------------------------------------------------------------------ *)

(* Sums and sample counts of replayed kernel times, keyed by metric. *)
type acc = (string, float * int) Hashtbl.t

let acc () : acc = Hashtbl.create 32

let record (a : acc) key v =
  let s, n = Option.value (Hashtbl.find_opt a key) ~default:(0.0, 0) in
  Hashtbl.replace a key (s +. v, n + 1)

let total (a : acc) key = fst (Option.value (Hashtbl.find_opt a key) ~default:(0.0, 0))
let count (a : acc) key = snd (Option.value (Hashtbl.find_opt a key) ~default:(0.0, 0))
let mean (a : acc) key = ratio (total a key) (float_of_int (count a key))

let time a key f =
  let r, dt = Timing.timed f in
  record a key dt;
  r

let batch_engine ctx : Engine.batch =
  match Ctx.verify_engine ctx with #Engine.batch as e -> e | `Scalar -> `Packed

(* Lane-cycles per second of the context's sliced engine streaming MACs
   through [m] in every lane. *)
let stream_lanes a ctx (m : Macro_rtl.t) =
  let (module E) = Engine.slice (batch_engine ctx) in
  let module B = Testbench.Sliced (E) in
  let rng = Rng.create 0xB175 in
  let sim = E.create m.Macro_rtl.design in
  if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then E.set_bus sim "copy_sel" 0;
  B.load_weights_lanes m sim ~copy:0
    (Array.init (E.lanes_of sim) (fun _ ->
         Testbench.random_weights rng m ~density:0.5));
  E.reset_stats sim;
  time a "sim.stream_s" (fun () ->
      B.run_stream m sim ~rng ~macs:4 ~input_density:0.5);
  record a "sim.lane_cycles" (float_of_int (E.cycles sim * E.lanes_of sim))

(* A differential check of [m]; returns its time. *)
let diffcheck a ctx ~seed (m : Macro_rtl.t) =
  let o, dt =
    Timing.timed (fun () ->
        Diffcheck.check_macro ~engine:(Ctx.verify_engine ctx) ~seed
          ~random_batches:2 m)
  in
  record a "diffcheck.s" dt;
  record a "diffcheck.checks" (float_of_int o.Diffcheck.checks);
  dt

(* One candidate evaluation, kernel by kernel, in the order
   [Design_point.evaluate] runs them. *)
let evaluate a lib (spec : Spec.t) cfg =
  let m = time a "macro_rtl.build.ms" (fun () -> Macro_rtl.build lib cfg) in
  let d = m.Macro_rtl.design in
  let budget = Spec.search_budget_ps spec lib.Library.node in
  let sized =
    time a "sizing.speed_up.ms" (fun () ->
        Sizing.speed_up d lib ~target_ps:budget)
  in
  record a "sizing.upsized_per_eval" (float_of_int sized.Sizing.upsized);
  let loads = time a "ir.fanout_loads.ms" (fun () -> Ir.fanout_loads d lib ()) in
  ignore (time a "sta.analyze.ms" (fun () -> Sta.analyze ~loads d lib));
  ignore (time a "stats.of_design.ms" (fun () -> Stats.of_design d lib));
  ignore
    (time a "design_point.measure_power.ms" (fun () ->
         Design_point.measure_power ~loads lib m ~freq_hz:spec.Spec.mac_freq_hz
           ~vdd:spec.Spec.vdd
           ~input_density:Design_point.search_input_density
           ~weight_density:Design_point.search_weight_density
           ~macs:Design_point.search_macs))

let eval_kernels =
  [
    "macro_rtl.build.ms"; "sizing.speed_up.ms"; "ir.fanout_loads.ms";
    "sta.analyze.ms"; "stats.of_design.ms"; "design_point.measure_power.ms";
  ]

(* Replay one spec's compile. The spec compiles twice on one fresh
   context so that the second compile's search, like the replayed
   evaluations, runs on a warm subcircuit library. The distinct
   candidates of its final attempt are then rebuilt kernel by kernel, and
   its signed-off macro is re-run through the back-end, power and
   sign-off kernels. *)
let replay_compile a (spec : Spec.t) =
  let ctx = Ctx.fresh () in
  let lib = Ctx.lib ctx in
  ignore (Pipeline.run ctx spec);
  let tr = Trace.create () in
  match Pipeline.run ~trace:tr ctx spec with
  | Error d -> failwith ("replay compile failed: " ^ Diag.to_string d)
  | Ok run ->
      let art = run.Pipeline.artifact in
      let boost =
        match List.rev run.Pipeline.attempts with
        | last :: _ -> last.Pipeline.attempt_boost
        | [] -> 1.0
      in
      let search_spec =
        { spec with Spec.mac_freq_hz = spec.Spec.mac_freq_hz *. boost }
      in
      (match
         List.rev
           (List.filter
              (fun (r : Trace.row) -> r.Trace.stage = Pipeline.stage_search)
              (Trace.rows tr))
       with
      | last :: _ -> record a "search.stage_s" (last.Trace.wall_ms /. 1e3)
      | [] -> ());
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (p : Design_point.t) ->
          let k = Eval_cache.key search_spec p.Design_point.cfg in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            evaluate a lib search_spec p.Design_point.cfg
          end)
        art.Pipeline.search.Searcher.visited;
      let m = art.Pipeline.macro in
      let d = m.Macro_rtl.design in
      let fp = time a "floorplan.sdp.ms" (fun () -> Floorplan.sdp lib m) in
      let routing = time a "route.build.ms" (fun () -> Route.build fp) in
      ignore (time a "drc.check.ms" (fun () -> Drc.check lib fp));
      ignore (time a "lvs.check.ms" (fun () -> Lvs.check fp));
      let wire_cap = Route.wire_cap_fn routing lib.Library.node in
      ignore (time a "sta.analyze_wire.ms" (fun () -> Sta.analyze ~wire_cap d lib));
      ignore
        (time a "post_layout.power.ms" (fun () ->
             Post_layout.power lib m art.Pipeline.signoff
               ~freq_hz:spec.Spec.mac_freq_hz ~vdd:spec.Spec.vdd
               ~input_density:Pipeline.report_input_density
               ~weight_density:Pipeline.report_weight_density
               ~macs:Pipeline.report_macs));
      time a "testbench.verify.ms" (fun () ->
          Testbench.verify ~engine:(Ctx.verify_engine ctx) m ~seed:0xACC
            ~batches:Pipeline.verify_batches);
      stream_lanes a ctx m;
      ignore (diffcheck a ctx ~seed:0xD1FF m)

(* Replay one campaign unit: the build and the differential check that
   [Diffcheck.check_spec] runs back to back. *)
let replay_check a ctx ~seed (spec : Spec.t) =
  let m =
    time a "campaign.build_s" (fun () ->
        Macro_rtl.build (Ctx.lib ctx) (Spec.initial_config spec))
  in
  record a "campaign.check_s" (diffcheck a ctx ~seed m);
  stream_lanes a ctx m

let replay_metamorph a ctx ~seed (spec : Spec.t) =
  ignore
    (time a "metamorph.ms" (fun () ->
         Metamorph.check_moves ~jobs:1 ~seed ctx spec
         @ [ Metamorph.check_equiv_pair ~seed ctx spec ]))

let replay_shrink a ctx ~bug ~seed (spec : Spec.t) =
  ignore
    (time a "campaign.shrink.ms" (fun () ->
         Specgen.shrink_to_minimal ~fails:(Diffcheck.fails ~bug ~seed ctx) spec))

(* Hit-path pieces of the compile cache: the library fingerprint every
   request recomputes, a lookup of each stored key, and a store of each
   value into a scratch store under [scratch]. *)
let replay_disk_cache a ctx cache ~scratch (specs : Spec.t list) =
  let lib = Ctx.lib ctx in
  let fp = ref "" in
  for _ = 1 to 200 do
    fp := time a "disk_cache.library_fingerprint_us"
        (fun () -> Disk_cache.library_fingerprint lib)
  done;
  let algo =
    Pipeline.cache_algo_tag ~style:Floorplan.Sdp Pipeline.default_policy
  in
  let keys = List.map (Disk_cache.key ~lib_fp:!fp ~algo) specs in
  let lookups = Timing.samples () and stores = Timing.samples () in
  let values =
    List.filter_map
      (fun k ->
        let l, dt = Timing.timed (fun () -> Disk_cache.lookup cache k) in
        Timing.push lookups dt;
        match l with Disk_cache.Hit v -> Some (k, v) | _ -> None)
      keys
  in
  (match Disk_cache.open_root scratch with
  | Error msg -> failwith msg
  | Ok store ->
      List.iter
        (fun (k, v) ->
          let (), dt = Timing.timed (fun () -> Disk_cache.store store k v) in
          Timing.push stores dt)
        values);
  [
    ("disk_cache.lookup_us_p50", Timing.median (Timing.to_array lookups) *. 1e6);
    ("disk_cache.store_us_p50", Timing.median (Timing.to_array stores) *. 1e6);
    ("disk_cache.library_fingerprint_us",
      mean a "disk_cache.library_fingerprint_us" *. 1e6);
  ]

(* Per-layer values of everything replayed into [a]. *)
let replayed (a : acc) =
  let evals = count a "macro_rtl.build.ms" in
  let kernel_s = List.fold_left (fun s k -> s +. total a k) 0.0 eval_kernels in
  let build = total a "campaign.build_s" and check = total a "campaign.check_s" in
  List.map (fun k -> (k, mean a k *. 1e3)) eval_kernels
  @ [
      ("design_point.evaluate.ms", ratio kernel_s (float_of_int evals) *. 1e3);
      ("sizing.upsized_per_eval", mean a "sizing.upsized_per_eval");
      ("search.kernel_coverage", ratio kernel_s (total a "search.stage_s"));
      ("sim.lane_cycles_per_s",
        ratio (total a "sim.lane_cycles") (total a "sim.stream_s"));
      ("diffcheck.checks_per_s",
        ratio (total a "diffcheck.checks") (total a "diffcheck.s"));
      ("campaign.build.share", ratio build (build +. check));
    ]
  @ List.map
      (fun k -> (k, mean a k *. 1e3))
      [
        "floorplan.sdp.ms"; "route.build.ms"; "drc.check.ms"; "lvs.check.ms";
        "sta.analyze_wire.ms"; "post_layout.power.ms"; "testbench.verify.ms";
        "campaign.shrink.ms"; "metamorph.ms";
      ]
