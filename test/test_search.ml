(* Tests for the multi-spec-oriented searcher (Algorithm 1): spec
   plumbing, design-point evaluation, timing-closure behaviour, latency
   recovery, preference fine-tuning and the Pareto sweep. Small arrays
   keep these fast while exercising every step. *)

let lib = Library.n40 ()
let scl = Scl.create lib

let check_bool = Alcotest.(check bool)

(* a small spec that the default config misses and techniques fix *)
let spec ?(rows = 16) ?(cols = 16) ?(freq = 900e6) ?(pref = Spec.Balanced) ()
    =
  {
    Spec.rows;
    cols;
    mcr = 1;
    input_prec = Precision.int8;
    weight_prec = Precision.int8;
    mac_freq_hz = freq;
    weight_update_freq_hz = freq;
    vdd = 0.9;
    preference = pref;
  }

let test_spec_budget () =
  let s = spec () in
  let b = Spec.nominal_budget_ps s lib.Library.node in
  let sb = Spec.search_budget_ps s lib.Library.node in
  check_bool "budget below period" true (b < 1e12 /. s.Spec.mac_freq_hz);
  check_bool "search budget is derated" true
    (Float.abs (sb -. (b *. (1.0 -. Spec.wire_derate))) < 1e-6)

let test_initial_config_from_spec () =
  let s = spec ~rows:32 ~cols:16 () in
  let cfg = Spec.initial_config s in
  Alcotest.(check int) "rows" 32 cfg.Macro_rtl.rows;
  Alcotest.(check int) "cols" 16 cfg.Macro_rtl.cols;
  check_bool "default tree is compressor CSA" true
    (cfg.Macro_rtl.tree = Adder_tree.Csa { fa_ratio = 0.0; reorder = false })

let test_design_point_evaluation () =
  let s = spec ~freq:500e6 () in
  let p = Design_point.evaluate lib s (Spec.initial_config s) in
  check_bool "power positive" true (Design_point.power_w p > 0.0);
  check_bool "area positive" true (p.Design_point.area_um2 > 0.0);
  check_bool "tops consistent" true
    (Float.abs
       (p.Design_point.tops
       -. (2.0 *. 16.0 *. 2.0 *. 500e6 /. 8.0 /. 1e12))
    < 1e-9);
  check_bool "meets at 500MHz" true p.Design_point.meets_mac

(* ---- power on demand: [evaluate] leaves power pending, [power_w] runs
   the stream once and prices the drives sizing left at evaluation ---- *)

let power_streams = Metrics.counter "search.power_streams"

let measure_now (s : Spec.t) (p : Design_point.t) =
  (Design_point.measure_power lib p.Design_point.macro
     ~freq_hz:s.Spec.mac_freq_hz ~vdd:s.Spec.vdd
     ~input_density:Design_point.search_input_density
     ~weight_density:Design_point.search_weight_density
     ~macs:Design_point.search_macs)
    .Power.total_w

let test_deferred_power_bit_identical () =
  (* a spec whose initial configuration sizing still speeds up, so the
     evaluated drives differ from all-X1 *)
  let s = { (spec ~freq:800e6 ()) with Spec.input_prec = Precision.bf16 } in
  let p = Design_point.evaluate lib s (Spec.initial_config s) in
  check_bool "sizing upsized something" true (p.Design_point.upsized > 0);
  let eager = measure_now s p in
  let d = p.Design_point.macro.Macro_rtl.design in
  Sizing.relax d;
  check_bool "relaxed drives price differently" true (measure_now s p <> eager);
  ignore (Sizing.speed_up d lib ~target_ps:1.0);
  check_bool "deferred = eager at evaluation time (=)" true
    (Design_point.power_w p = eager);
  check_bool "second read returns the stored value" true
    (Design_point.power_w p = eager)

let test_deferred_power_single_flight () =
  let s = spec ~freq:500e6 () in
  let p = Design_point.evaluate lib s (Spec.initial_config s) in
  let before = Metrics.counter_value power_streams in
  let go = Atomic.make false in
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Design_point.power_w p))
  in
  Atomic.set go true;
  let values = List.map Domain.join readers in
  let first = List.hd values in
  List.iter
    (fun w -> check_bool "every domain reads one value" true (w = first))
    values;
  Alcotest.(check int)
    "exactly one stream ran" 1
    (Metrics.counter_value power_streams - before)

let streams_of_search pref =
  let before = Metrics.counter_value power_streams in
  let r = Searcher.search lib scl (spec ~freq:500e6 ~pref ()) in
  (r, Metrics.counter_value power_streams - before)

let test_search_streams_only_when_read () =
  List.iter
    (fun (name, pref) ->
      let r, n = streams_of_search pref in
      check_bool (name ^ " closes") true r.Searcher.timing_closed;
      Alcotest.(check int) (name ^ " runs no power stream") 0 n)
    [ ("Prefer_area", Spec.Prefer_area);
      ("Prefer_performance", Spec.Prefer_performance) ];
  let _, n = streams_of_search Spec.Prefer_power in
  check_bool "Prefer_power runs at least one stream" true (n >= 1)

let test_critical_stage_classification () =
  (* with the OFU unpipelined and everything else registered, the OFU owns
     the critical path *)
  let s = spec ~freq:2000e6 () in
  let cfg = Spec.initial_config s in
  let p = Design_point.evaluate lib s cfg in
  check_bool "stage is a known one" true
    (match Design_point.critical_stage p with
    | Design_point.Mac_path | Design_point.Ofu_path | Design_point.Sa_path
    | Design_point.Align_path ->
        true)

let test_search_closes_easy () =
  let r = Searcher.search lib scl (spec ~freq:300e6 ()) in
  check_bool "closed" true r.Searcher.timing_closed;
  check_bool "final meets" true r.Searcher.final.Design_point.meets_mac

let test_search_applies_techniques_when_tight () =
  let r = Searcher.search lib scl (spec ~freq:1000e6 ()) in
  check_bool "closed at 1 GHz" true r.Searcher.timing_closed;
  check_bool "needed techniques" true (List.length r.Searcher.applied >= 1)

let test_search_gives_up_gracefully () =
  let r = Searcher.search lib scl (spec ~freq:5000e6 ()) in
  check_bool "not closed at 5 GHz" false r.Searcher.timing_closed;
  check_bool "still returns a best effort" true
    (r.Searcher.final.Design_point.crit_ps > 0.0)

let test_search_visits_recorded () =
  let r = Searcher.search lib scl (spec ~freq:1000e6 ()) in
  check_bool "visited includes final-like points" true
    (List.length r.Searcher.visited >= List.length r.Searcher.applied)

let test_latency_recovery_at_loose_spec () =
  (* at a very loose clock the fusion step should remove registers *)
  let r = Searcher.search lib scl (spec ~freq:200e6 ()) in
  let cfg = r.Searcher.final.Design_point.cfg in
  check_bool "some pipeline register removed" true
    ((not cfg.Macro_rtl.reg_after_tree)
    || not cfg.Macro_rtl.reg_sa_to_ofu)

let test_preferences_affect_outcome () =
  let power = Searcher.search lib scl (spec ~freq:700e6 ~pref:Spec.Prefer_power ()) in
  let area = Searcher.search lib scl (spec ~freq:700e6 ~pref:Spec.Prefer_area ()) in
  let pw (r : Searcher.result) = Design_point.power_w r.Searcher.final in
  let ar (r : Searcher.result) = r.Searcher.final.Design_point.area_um2 in
  (* each preference should be at least as good on its own axis *)
  check_bool "power preference not worse on power" true
    (pw power <= pw area +. 1e-6 || ar area <= ar power +. 1e-6)

let test_technique_names () =
  (* every constructor prints something non-empty and distinct *)
  let names =
    List.map Searcher.technique_name
      [
        Searcher.Tt1_faster_adder Adder_tree.Rca_tree;
        Searcher.Tt1_faster_sa Shift_adder.Carry_save;
        Searcher.Tt1_faster_ofu_adder;
        Searcher.Tt2_retime_tree;
        Searcher.Tt3_split_column 2;
        Searcher.Tt4_retime_ofu;
        Searcher.Tt5_pipe_ofu;
        Searcher.Align_pipe 2;
        Searcher.Fuse_tree_sa;
        Searcher.Fuse_sa_ofu;
        Searcher.Ft_substitute "x";
      ]
  in
  check_bool "non-empty" true (List.for_all (fun s -> String.length s > 0) names);
  Alcotest.(check int) "distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_final_design_verifies () =
  let r = Searcher.search lib scl (spec ~freq:900e6 ()) in
  Testbench.verify r.Searcher.final.Design_point.macro ~seed:3 ~batches:3

let test_pareto_sweep () =
  let front, cloud = Searcher.pareto_sweep lib scl (spec ~freq:800e6 ()) in
  check_bool "cloud non-empty" true (List.length cloud >= 3);
  check_bool "frontier non-empty" true (List.length front >= 1);
  check_bool "frontier subset of cloud" true
    (List.for_all (fun p -> List.memq p cloud) front);
  (* no frontier point dominated by a cloud point on all three axes *)
  let obj (p : Design_point.t) =
    [|
      Design_point.power_w p; p.Design_point.area_um2; p.Design_point.crit_ps;
    |]
  in
  check_bool "frontier sound" true
    (List.for_all
       (fun f ->
         not (List.exists (fun c -> Pareto.dominates (obj c) (obj f)) cloud))
       front)

let test_pareto_sweep_parallel_deterministic () =
  (* the parallel sweep must be bit-for-bit the sequential sweep:
     evaluations are pure and the pool preserves order *)
  let s = spec ~freq:800e6 () in
  let f1, c1 = Searcher.pareto_sweep ~jobs:1 lib scl s in
  let f4, c4 = Searcher.pareto_sweep ~jobs:4 lib scl s in
  Alcotest.(check int) "frontier size" (List.length f1) (List.length f4);
  Alcotest.(check int) "cloud size" (List.length c1) (List.length c4);
  let same (a : Design_point.t) (b : Design_point.t) =
    a.Design_point.cfg = b.Design_point.cfg
    && Design_point.power_w a = Design_point.power_w b
    && a.Design_point.area_um2 = b.Design_point.area_um2
    && a.Design_point.crit_ps = b.Design_point.crit_ps
  in
  List.iter2
    (fun a b -> check_bool "frontier point identical" true (same a b))
    f1 f4;
  List.iter2
    (fun a b -> check_bool "cloud point identical" true (same a b))
    c1 c4

(* ---------------- evaluation cache ---------------- *)

let test_cache_hit () =
  let cache = Eval_cache.create () in
  let s = spec ~freq:500e6 () in
  let cfg = Spec.initial_config s in
  let p1 = Eval_cache.evaluate cache lib s cfg in
  let p2 = Eval_cache.evaluate cache lib s cfg in
  check_bool "second evaluation is the stored point" true (p1 == p2);
  let st = Eval_cache.stats cache in
  Alcotest.(check int) "one miss" 1 st.Eval_cache.misses;
  Alcotest.(check int) "one hit" 1 st.Eval_cache.hits;
  Alcotest.(check int) "one entry" 1 (Eval_cache.size cache)

let test_cache_distinct_operating_points () =
  (* same config under different operating points must never alias *)
  let s = spec ~freq:500e6 () in
  let cfg = Spec.initial_config s in
  let s_faster = { s with Spec.mac_freq_hz = 900e6 } in
  let s_lower_vdd = { s with Spec.vdd = 0.7 } in
  check_bool "freq in key" true
    (Eval_cache.key s cfg <> Eval_cache.key s_faster cfg);
  check_bool "vdd in key" true
    (Eval_cache.key s cfg <> Eval_cache.key s_lower_vdd cfg);
  let cache = Eval_cache.create () in
  ignore (Eval_cache.evaluate cache lib s cfg);
  ignore (Eval_cache.evaluate cache lib s_faster cfg);
  ignore (Eval_cache.evaluate cache lib s_lower_vdd cfg);
  let st = Eval_cache.stats cache in
  Alcotest.(check int) "no spurious hits" 0 st.Eval_cache.hits;
  Alcotest.(check int) "three misses" 3 st.Eval_cache.misses

let test_cache_preference_shared () =
  (* the preference steers the walk but not an evaluation, so walks under
     different preferences share cache entries *)
  let s = spec ~freq:500e6 ~pref:Spec.Prefer_power () in
  let cfg = Spec.initial_config s in
  Alcotest.(check string)
    "preference not in key"
    (Eval_cache.key s cfg)
    (Eval_cache.key { s with Spec.preference = Spec.Prefer_area } cfg)

let test_cache_stats_arithmetic () =
  (* a cache's counters are a scoped view of the registry's: a fresh cache
     reads zero, a snapshot stays frozen while the cache keeps counting,
     and every lookup lands once in the process-wide [cache.eval.*] *)
  let registry name = Metrics.counter_value (Metrics.counter name) in
  let hits0 = registry "cache.eval.hits"
  and misses0 = registry "cache.eval.misses" in
  let cache = Eval_cache.create () in
  let before = Eval_cache.stats cache in
  let s = spec ~freq:500e6 () in
  let cfg = Spec.initial_config s in
  ignore (Eval_cache.evaluate cache lib s cfg);
  ignore (Eval_cache.evaluate cache lib s cfg);
  ignore (Eval_cache.evaluate cache lib s cfg);
  let after = Eval_cache.stats cache in
  Alcotest.(check int) "fresh hits" 0 before.Eval_cache.hits;
  Alcotest.(check int) "fresh misses" 0 before.Eval_cache.misses;
  Alcotest.(check int) "hits" 2 after.Eval_cache.hits;
  Alcotest.(check int) "misses" 1 after.Eval_cache.misses;
  Alcotest.(check int) "registry hits" 2 (registry "cache.eval.hits" - hits0);
  Alcotest.(check int)
    "registry misses" 1
    (registry "cache.eval.misses" - misses0)

let test_cache_keys_distinct_over_lattice () =
  (* every lattice configuration must key differently: a collision would
     silently alias two candidates and corrupt the sweep *)
  let s = spec () in
  let keys = List.map (Eval_cache.key s) (Searcher.exploration_lattice s) in
  Alcotest.(check int)
    "no key collisions" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_cache_describe () =
  Alcotest.(check string)
    "hit-rate line"
    "eval cache: 3 hits / 1 misses (75 % hit rate)"
    (Eval_cache.describe { Eval_cache.hits = 3; misses = 1 });
  (* the empty cache must not divide by zero *)
  Alcotest.(check string)
    "zero-total line" "eval cache: 0 hits / 0 misses (0 % hit rate)"
    (Eval_cache.describe { Eval_cache.hits = 0; misses = 0 })

let test_cache_no_eviction () =
  (* the per-sweep cache is unbounded by design: every distinct config
     stays resident and revisits always hit *)
  let s = spec ~freq:500e6 () in
  let cfgs = Searcher.exploration_lattice s in
  let cache = Eval_cache.create () in
  List.iter (fun cfg -> ignore (Eval_cache.evaluate cache lib s cfg)) cfgs;
  Alcotest.(check int)
    "every insert resident" (List.length cfgs) (Eval_cache.size cache);
  List.iter (fun cfg -> ignore (Eval_cache.evaluate cache lib s cfg)) cfgs;
  let st = Eval_cache.stats cache in
  Alcotest.(check int) "revisits all hit" (List.length cfgs) st.Eval_cache.hits;
  Alcotest.(check int)
    "size unchanged by revisits" (List.length cfgs) (Eval_cache.size cache)

let test_cache_concurrent_evaluate () =
  (* domains racing on one key: one call evaluates (the miss), the other
     seven get its point (hits, waiters included) *)
  let cache = Eval_cache.create () in
  let s = spec ~freq:500e6 () in
  let cfg = Spec.initial_config s in
  let points =
    Pool.parallel_map ~jobs:4
      (fun _ -> Eval_cache.evaluate cache lib s cfg)
      (List.init 8 Fun.id)
  in
  let st = Eval_cache.stats cache in
  Alcotest.(check int) "one miss" 1 st.Eval_cache.misses;
  Alcotest.(check int) "seven hits" 7 st.Eval_cache.hits;
  Alcotest.(check int) "single entry" 1 (Eval_cache.size cache);
  match points with
  | first :: rest ->
      List.iter
        (fun p -> check_bool "all callers share the stored point" true (p == first))
        rest
  | [] -> Alcotest.fail "pool returned nothing"

let test_lattice_legality () =
  let cfgs = Searcher.exploration_lattice (spec ()) in
  check_bool "non-trivial lattice" true (List.length cfgs >= 8);
  List.iter
    (fun (cfg : Macro_rtl.config) ->
      Mulmux.check_mcr cfg.Macro_rtl.mul_kind cfg.Macro_rtl.mcr)
    cfgs

let () =
  Alcotest.run "search"
    [
      ( "spec",
        [
          Alcotest.test_case "budget" `Quick test_spec_budget;
          Alcotest.test_case "initial config" `Quick
            test_initial_config_from_spec;
        ] );
      ( "design_point",
        [
          Alcotest.test_case "evaluation" `Quick test_design_point_evaluation;
          Alcotest.test_case "stage classification" `Quick
            test_critical_stage_classification;
          Alcotest.test_case "deferred power bit-identical" `Quick
            test_deferred_power_bit_identical;
          Alcotest.test_case "deferred power single-flight" `Quick
            test_deferred_power_single_flight;
          Alcotest.test_case "search streams only when read" `Quick
            test_search_streams_only_when_read;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "closes easy spec" `Quick test_search_closes_easy;
          Alcotest.test_case "applies techniques" `Quick
            test_search_applies_techniques_when_tight;
          Alcotest.test_case "gives up gracefully" `Quick
            test_search_gives_up_gracefully;
          Alcotest.test_case "records visits" `Quick
            test_search_visits_recorded;
          Alcotest.test_case "latency recovery" `Quick
            test_latency_recovery_at_loose_spec;
          Alcotest.test_case "preferences" `Slow
            test_preferences_affect_outcome;
          Alcotest.test_case "technique names" `Quick test_technique_names;
          Alcotest.test_case "final verifies" `Quick
            test_final_design_verifies;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "sweep" `Slow test_pareto_sweep;
          Alcotest.test_case "parallel determinism" `Slow
            test_pareto_sweep_parallel_deterministic;
          Alcotest.test_case "lattice legality" `Quick test_lattice_legality;
        ] );
      ( "eval_cache",
        [
          Alcotest.test_case "hit returns stored point" `Quick test_cache_hit;
          Alcotest.test_case "operating points never alias" `Quick
            test_cache_distinct_operating_points;
          Alcotest.test_case "preference shares entries" `Quick
            test_cache_preference_shared;
          Alcotest.test_case "stats arithmetic" `Quick
            test_cache_stats_arithmetic;
          Alcotest.test_case "lattice keys distinct" `Quick
            test_cache_keys_distinct_over_lattice;
          Alcotest.test_case "describe" `Quick test_cache_describe;
          Alcotest.test_case "no eviction" `Quick test_cache_no_eviction;
          Alcotest.test_case "concurrent evaluate" `Quick
            test_cache_concurrent_evaluate;
        ] );
    ]
