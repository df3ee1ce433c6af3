(* Cross-engine conformance suite: one parameterized battery proving two
   simulation engines bit-identical on everything they expose — per-lane
   net values, sequential and storage state, bus reads, lane-summed
   toggle/enable/weight counters, sign-off verdicts with their Mismatch
   payloads, differential-check outcomes (clean and with injected
   faults, reproducer parity included), equivalence-check verdicts and
   measured power floats.

   [Make] is instantiated in test_conformance.ml for the (scalar oracle,
   packed) pair at one 63-lane word and again with the packed engine
   driven across a two-word (126-lane) ensemble, the way every batch
   consumer runs work wider than one word: as consecutive one-word
   slices. Each engine is a Slice.S module, handed to the consumers
   (Testbench.Sliced, Diffcheck.Check, Equiv.check) as they run in
   production, so any future engine earns its place by passing the
   identical battery the packed engine passed. *)

let lib = lazy (Library.n40 ())

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let gen_spec seed = List.hd (Specgen.generate ~seed ~count:1)
let macro_of spec = Macro_rtl.build (Lazy.force lib) (Spec.initial_config spec)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Lane widths an ensemble must survive: one lane, both ends of each
   63-lane word and the full ensemble width. *)
let lane_edges lanes =
  List.filter (fun n -> n <= lanes) [ 1; 62; 63; 64; 126 ]
  |> fun l -> List.sort_uniq compare (lanes :: l)

module type PAIR = sig
  module Reference : Slice.S
  module Candidate : Slice.S

  val lanes : int
  (** ensemble width the candidate is driven at; beyond one slice it
      runs as consecutive [max_lanes]-wide slices, each lane's stimulus
      unchanged *)

  val fuzz_count : int
  (** QCheck iteration budget for the fuzzed-spec properties; a sliced
      engine pays [n_lanes] scalar replicas per iteration, so the
      instantiation picks the budget *)
end

module Make (P : PAIR) () = struct
  module R = P.Reference
  module C = P.Candidate

  (* slices of the ensemble: lane [l] is lane [l mod C.max_lanes] of
     slice [l / C.max_lanes] *)
  let n_slices = (P.lanes + C.max_lanes - 1) / C.max_lanes

  let label =
    Printf.sprintf "%s-vs-%s" R.name
      (if n_slices = 1 then C.name
       else Printf.sprintf "multiword:%d" P.lanes)

  let named s = Printf.sprintf "%s: %s" label s

  (* ---------------- per-lane state equivalence ---------------- *)

  (* Drive the candidate ensemble and [n_lanes] scalar replicas with
     identical per-lane stimulus — random values on every input bus,
     every cycle, plus a mid-run weight write — then require bit-exact
     agreement on everything the engines expose. The scalar replicas
     are the ground truth both pair members are pinned to. *)
  let run_equivalence ~seed ~cycles ~n_lanes =
    let module B = Testbench.Sliced (C) in
    let n_lanes = min n_lanes P.lanes in
    let spec = gen_spec seed in
    let m = Macro_rtl.build (Lazy.force lib) (Spec.initial_config spec) in
    let d = m.Macro_rtl.design in
    let rng = Rng.create (seed lxor 0x5EED) in
    let slices =
      Array.init
        ((n_lanes + C.max_lanes - 1) / C.max_lanes)
        (fun i ->
          C.create ~n_lanes:(min C.max_lanes (n_lanes - (i * C.max_lanes))) d)
    in
    (* [per_slice a] cuts a per-lane array into the slices' lane ranges *)
    let per_slice a =
      Array.mapi
        (fun i psim -> Array.sub a (i * C.max_lanes) (C.lanes_of psim))
        slices
    in
    let psim_of l = slices.(l / C.max_lanes) and lane_of l = l mod C.max_lanes in
    check_int (named "lanes_of") n_lanes
      (Array.fold_left (fun acc psim -> acc + C.lanes_of psim) 0 slices);
    let sims = Array.init n_lanes (fun _ -> Sim.create d) in
    (* per-lane random weights into every copy, same write order *)
    for copy = 0 to m.Macro_rtl.cfg.Macro_rtl.mcr - 1 do
      let weights =
        Array.init n_lanes (fun _ ->
            Testbench.random_weights rng m ~density:0.7)
      in
      Array.iteri
        (fun l sim -> Oracle.Bench.load_weights m sim ~copy weights.(l))
        sims;
      Array.iter2
        (fun psim w -> B.load_weights_lanes m psim ~copy w)
        slices (per_slice weights)
    done;
    let inputs = Ir.inputs d.Ir.src in
    let vs = Array.make n_lanes 0 in
    for cyc = 1 to cycles do
      List.iter
        (fun (name, bus) ->
          let bound = 1 lsl min (Array.length bus) 30 in
          for l = 0 to n_lanes - 1 do
            vs.(l) <- Rng.int rng bound
          done;
          Array.iter2
            (fun psim v -> C.set_bus_lanes psim name v)
            slices (per_slice vs);
          Array.iteri (fun l sim -> Sim.set_bus sim name vs.(l)) sims)
        inputs;
      (* a weight write mid-stream exercises the flip/write counters *)
      if cyc = cycles / 2 then begin
        let bits = Array.init n_lanes (fun _ -> Rng.int rng 2 = 1) in
        Array.iter2
          (fun psim b -> C.set_weight_lanes psim ~row:0 ~col:0 ~copy:0 b)
          slices (per_slice bits);
        Array.iteri
          (fun l sim -> Sim.set_weight sim ~row:0 ~col:0 ~copy:0 bits.(l))
          sims
      end;
      Array.iter C.step slices;
      Array.iter Sim.step sims
    done;
    (* per-lane state must be bit-exact *)
    for l = 0 to n_lanes - 1 do
      let psim = psim_of l and pl = lane_of l in
      if C.extract_lane psim pl <> sims.(l).Sim.values then
        QCheck.Test.fail_reportf "%s seed %d: lane %d net values diverge"
          label seed l;
      if C.seq_state_lane psim pl <> sims.(l).Sim.seq_state then
        QCheck.Test.fail_reportf "%s seed %d: lane %d seq state diverges"
          label seed l;
      if C.storage_state_lane psim pl <> sims.(l).Sim.storage_state then
        QCheck.Test.fail_reportf "%s seed %d: lane %d storage diverges" label
          seed l;
      List.iter
        (fun (name, _) ->
          if
            C.read_bus_lane psim name pl <> Sim.read_bus sims.(l) name
            || C.read_bus_signed_lane psim name pl
               <> Sim.read_bus_signed sims.(l) name
          then
            QCheck.Test.fail_reportf "%s seed %d: lane %d bus %s diverges"
              label seed l name)
        (Ir.outputs d.Ir.src)
    done;
    (* lane-summed counters, summed again over the slices, must equal
       the sums of the scalar counters *)
    let sum f = Array.fold_left (fun acc sim -> acc + f sim) 0 sims in
    let slice_sum f = Array.fold_left (fun acc psim -> acc + f psim) 0 slices in
    for net = 0 to d.Ir.n_nets - 1 do
      let scalar = sum (fun sim -> sim.Sim.toggles.(net)) in
      let sliced = slice_sum (fun psim -> (C.toggles psim).(net)) in
      if scalar <> sliced then
        QCheck.Test.fail_reportf
          "%s seed %d: net %d toggles: %s %d, scalar lanes sum %d" label seed
          net C.name sliced scalar
    done;
    for i = 0 to Array.length (C.en_cycles slices.(0)) - 1 do
      let scalar = sum (fun sim -> sim.Sim.en_cycles.(i)) in
      if scalar <> slice_sum (fun psim -> (C.en_cycles psim).(i)) then
        QCheck.Test.fail_reportf "%s seed %d: inst %d en_cycles diverge" label
          seed i
    done;
    check_int (named "weight_flips lane sum")
      (sum (fun sim -> sim.Sim.weight_flips))
      (slice_sum C.weight_flips);
    check_int (named "weight_writes lane sum")
      (sum (fun sim -> sim.Sim.weight_writes))
      (slice_sum C.weight_writes);
    Array.iter
      (fun psim -> check_int (named "cycles") sims.(0).Sim.cycles (C.cycles psim))
      slices;
    true

  let test_lane_edges_directed () =
    List.iter
      (fun n_lanes ->
        ignore (run_equivalence ~seed:11 ~cycles:6 ~n_lanes))
      (lane_edges P.lanes)

  let lane_equivalence_prop =
    QCheck.Test.make ~count:P.fuzz_count
      ~name:
        (named "every lane is bit-exact with a scalar replica (full width)")
      QCheck.small_nat
      (fun seed -> run_equivalence ~seed ~cycles:10 ~n_lanes:max_int)

  (* ---------------- sign-off verification parity ---------------- *)

  (* Sign-off batches per weight copy: two on one word; on a wider
     ensemble enough MACs to fill every slice, so the sliced engine
     crosses its chunk boundary mid-copy. *)
  let signoff_batches = if n_slices = 1 then 2 else P.lanes

  (* A verify run's observable outcome: None for a pass, the full
     Mismatch payload for a failure. Engine equivalence = equal
     outcomes — verdict, word index, expected/got values and the
     shrunk reproducer detail string. *)
  let verify_outcome (module E : Slice.S) (m : Macro_rtl.t) ~seed =
    let module B = Testbench.Sliced (E) in
    match B.verify m ~seed ~batches:signoff_batches with
    | () -> None
    | exception Testbench.Mismatch { word; expected; got; detail } ->
        Some (word, expected, got, detail)

  let test_verify_canonical () =
    List.iter
      (fun (name, spec) ->
        let m = macro_of spec in
        let r = verify_outcome (module R) m ~seed:0xACC in
        let c = verify_outcome (module C) m ~seed:0xACC in
        check_bool (named (name ^ ": reference passes")) true (r = None);
        check_bool (named (name ^ ": verdicts identical")) true (r = c))
      Snapshot.canonical_specs

  let verify_agree_prop =
    QCheck.Test.make ~count:P.fuzz_count
      ~name:(named "verify verdict engine-invariant on fuzzed specs")
      QCheck.small_nat
      (fun seed ->
        let m = macro_of (gen_spec seed) in
        verify_outcome (module R) m ~seed:(seed + 3)
        = verify_outcome (module C) m ~seed:(seed + 3))

  (* An early-sampled post pipeline (the Retime_early_sample fault
     class) must be caught by both engines with the exact same
     Mismatch — the scalar-minimal reproducer, never an engine-internal
     "packed-only" marker. *)
  let test_injected_fault_reproducer_parity () =
    let spec = snd (List.hd Snapshot.canonical_specs) in
    let cfg =
      { (Spec.initial_config spec) with Macro_rtl.ofu_extra_pipe = true }
    in
    let m = Macro_rtl.build (Lazy.force lib) cfg in
    check_bool (named "macro has a post pipeline stage") true
      (m.Macro_rtl.post_lat >= 1);
    let buggy = { m with Macro_rtl.post_lat = m.Macro_rtl.post_lat - 1 } in
    let r = verify_outcome (module R) buggy ~seed:7 in
    let c = verify_outcome (module C) buggy ~seed:7 in
    check_bool (named "reference engine catches the fault") true (r <> None);
    check_bool (named "reproducers identical") true (r = c);
    match c with
    | Some (_, _, _, detail) ->
        check_bool (named "reproducer is scalar-minimal") true
          (not (contains detail "packed-only"))
    | None -> Alcotest.fail (named "candidate engine missed the fault")

  (* One sign-off batch through the candidate engine against per-lane
     scalar replicas: MAC results and the summed activity counters must
     both match. *)
  let signoff_counters_agree ~seed (m : Macro_rtl.t) =
    let module E = C in
    let module B = Testbench.Sliced (E) in
    let d = m.Macro_rtl.design in
    let n = min 5 E.max_lanes in
    let rng = Rng.create (seed lxor 0xBEEF) in
    let weights =
      Array.init n (fun _ -> Testbench.random_weights rng m ~density:1.0)
    in
    let inputs =
      Array.init n (fun _ ->
          Array.init m.Macro_rtl.cfg.Macro_rtl.rows (fun _ ->
              Testbench.random_input rng m ~density:1.0))
    in
    let psim = E.create ~n_lanes:n d in
    if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then E.set_bus psim "copy_sel" 0;
    B.load_weights_lanes m psim ~copy:0 weights;
    let sliced_results = B.check_mac m psim ~weights ~inputs in
    let sims = Array.init n (fun _ -> Sim.create d) in
    let scalar_results =
      Array.mapi
        (fun l sim ->
          if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then
            Sim.set_bus sim "copy_sel" 0;
          Oracle.Bench.load_weights m sim ~copy:0 weights.(l);
          Oracle.Bench.check_mac m sim ~weights:weights.(l)
            ~inputs:inputs.(l))
        sims
    in
    if sliced_results <> scalar_results then
      QCheck.Test.fail_reportf "%s seed %d: MAC results diverge" label seed;
    let sum f = Array.fold_left (fun acc sim -> acc + f sim) 0 sims in
    let toggles = E.toggles psim and en_cycles = E.en_cycles psim in
    for net = 0 to d.Ir.n_nets - 1 do
      if toggles.(net) <> sum (fun sim -> sim.Sim.toggles.(net)) then
        QCheck.Test.fail_reportf "%s seed %d: net %d toggle counters diverge"
          label seed net
    done;
    for i = 0 to Array.length en_cycles - 1 do
      if en_cycles.(i) <> sum (fun sim -> sim.Sim.en_cycles.(i)) then
        QCheck.Test.fail_reportf "%s seed %d: inst %d en_cycles diverge" label
          seed i
    done;
    if E.cycles psim <> sims.(0).Sim.cycles then
      QCheck.Test.fail_reportf "%s seed %d: cycle counts diverge" label seed;
    true

  let test_signoff_counters_canonical () =
    List.iteri
      (fun i (_, spec) ->
        ignore (signoff_counters_agree ~seed:(100 + i) (macro_of spec)))
      Snapshot.canonical_specs

  (* ---------------- differential checking parity ---------------- *)

  module R_check = Diffcheck.Check (R)
  module C_check = Diffcheck.Check (C)

  let test_diffcheck_clean_agree () =
    List.iter
      (fun seed ->
        let m = macro_of (gen_spec seed) in
        let r =
          R_check.check_macro ~random_batches:signoff_batches
            ~seed:(seed + 100) m
        in
        let c =
          C_check.check_macro ~random_batches:signoff_batches
            ~seed:(seed + 100) m
        in
        check_bool
          (named (Printf.sprintf "seed %d: both engines pass" seed))
          true
          (r.Diffcheck.failure = None && c.Diffcheck.failure = None);
        check_int
          (named (Printf.sprintf "seed %d: check counts equal" seed))
          r.Diffcheck.checks c.Diffcheck.checks)
      [ 1; 2; 3 ]

  let test_diffcheck_bugs_agree () =
    (* both engines must catch each injected fault on the same specs *)
    List.iter
      (fun bug ->
        List.iter
          (fun seed ->
            let m = macro_of (gen_spec seed) in
            let fails check_macro =
              (check_macro ?bug:(Some bug) ~seed:(seed + 7)
                 ~random_batches:signoff_batches m)
                .Diffcheck.failure
              <> None
            in
            check_bool
              (named
                 (Printf.sprintf "%s seed %d: engines agree"
                    (Diffcheck.bug_name bug) seed))
              (fails R_check.check_macro) (fails C_check.check_macro))
          [ 1; 2; 3; 4 ])
      [ Diffcheck.Retime_early_sample; Diffcheck.Skip_sign_cycle ]

  (* ---------------- equivalence checking parity ---------------- *)

  let harness kind =
    let ir = Ir.create () in
    let a = Ir.new_bus ir 3 in
    Ir.add_input ir "a" a;
    let out =
      Array.map
        (fun net ->
          let o = Ir.new_net ir in
          ignore (Ir.add ir kind ~ins:[| net |] ~outs:[| o |]);
          o)
        a
    in
    Ir.add_output ir "out" out;
    Ir.freeze ir

  (* vector batches that are not a multiple of the engine's slice width
     exercise the partial trailing chunk *)
  let test_equiv_vector_count_edges () =
    let d = harness Cell.Inv in
    List.iter
      (fun vectors ->
        check_bool
          (named (Printf.sprintf "%d vectors equivalent" vectors))
          true
          (Equiv.check ~slice:(module C) ~vectors ~settle:2 ~hold:2 d d
          = Equiv.Equivalent vectors))
      [ 1; 62; 63; 64; 65; 126; 127; 252; 253 ]

  let test_equiv_mismatch_agreement () =
    let a = harness Cell.Inv and b = harness Cell.Buf in
    let r = Equiv.check ~slice:(module R) ~vectors:5 ~settle:2 ~hold:2 a b in
    let c = Equiv.check ~slice:(module C) ~vectors:5 ~settle:2 ~hold:2 a b in
    (match r with
    | Equiv.Mismatch { vector; _ } -> check_int (named "first vector") 0 vector
    | Equiv.Equivalent _ -> Alcotest.fail (named "inverter equals buffer?"));
    check_bool (named "identical mismatch payload") true (r = c)

  (* one word's worth of vectors, or the whole ensemble *)
  let equiv_vectors = if n_slices = 1 then 8 else P.lanes

  let equiv_agree_prop =
    QCheck.Test.make ~count:(max 3 (P.fuzz_count / 2))
      ~name:(named "Equiv verdict engine-invariant on generated macro pairs")
      QCheck.small_nat
      (fun seed ->
        let spec = gen_spec seed in
        let base = Spec.initial_config spec in
        let sub =
          {
            base with
            Macro_rtl.tree = Adder_tree.Csa { fa_ratio = 1.0; reorder = true };
          }
        in
        let l = Lazy.force lib in
        let a = (Macro_rtl.build l base).Macro_rtl.design in
        let b = (Macro_rtl.build l sub).Macro_rtl.design in
        let check slice =
          Equiv.check ~slice ~seed ~vectors:equiv_vectors ~settle:12 ~hold:3
            a b
        in
        check (module R) = check (module C))

  (* ---------------- measured power parity ---------------- *)

  (* The production power measurement at one lane (search and report)
     and at one full word (the Monte Carlo ensemble), pinned byte for
     byte to the oracle: the same stimulus run as independent scalar
     simulations, counters summed. *)
  let test_measure_power_pinned () =
    let l = Lazy.force lib in
    List.iter
      (fun (name, spec) ->
        let m = macro_of spec in
        List.iter
          (fun n_lanes ->
            let freq_hz = spec.Spec.mac_freq_hz and vdd = spec.Spec.vdd in
            let input_density = Design_point.search_input_density
            and weight_density = Design_point.search_weight_density in
            let o =
              Oracle.measure_power ~seed:0x90E ~n_lanes l m ~freq_hz ~vdd
                ~input_density ~weight_density ~macs:2
            and p =
              Design_point.measure_power ~seed:0x90E ~n_lanes l m ~freq_hz
                ~vdd ~input_density ~weight_density ~macs:2
            in
            let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
            if
              not
                (same o.Power.total_w p.Power.total_w
                && same o.Power.energy_per_cycle_fj p.Power.energy_per_cycle_fj
                && List.equal
                     (fun (ka, a) (kb, b) -> String.equal ka kb && same a b)
                     o.Power.by_subcircuit p.Power.by_subcircuit)
            then
              Alcotest.failf
                "%s: %s at %d lanes: packed %.17g W vs oracle %.17g W" label
                name n_lanes p.Power.total_w o.Power.total_w;
            check_bool (named "positive power") true (p.Power.total_w > 0.0))
          [ 1; min C.max_lanes P.lanes ])
      Snapshot.canonical_specs

  (* ---------------- the suite ---------------- *)

  let suite =
    [
      ( label ^ ":lanes",
        [
          Alcotest.test_case "lane-width edges, directed" `Quick
            test_lane_edges_directed;
          QCheck_alcotest.to_alcotest lane_equivalence_prop;
        ] );
      ( label ^ ":signoff",
        [
          Alcotest.test_case "verdicts on canonical specs" `Quick
            test_verify_canonical;
          QCheck_alcotest.to_alcotest verify_agree_prop;
          Alcotest.test_case "injected fault: reproducer parity" `Quick
            test_injected_fault_reproducer_parity;
          Alcotest.test_case "toggle counters on canonical specs" `Quick
            test_signoff_counters_canonical;
        ] );
      ( label ^ ":diffcheck",
        [
          Alcotest.test_case "clean specs agree" `Quick
            test_diffcheck_clean_agree;
          Alcotest.test_case "injected bugs agree" `Slow
            test_diffcheck_bugs_agree;
        ] );
      ( label ^ ":equiv",
        [
          Alcotest.test_case "partial trailing chunk edges" `Quick
            test_equiv_vector_count_edges;
          Alcotest.test_case "mismatch payload agreement" `Quick
            test_equiv_mismatch_agreement;
          QCheck_alcotest.to_alcotest equiv_agree_prop;
        ] );
      ( label ^ ":power",
        [
          Alcotest.test_case "measure_power pinned to the oracle" `Quick
            test_measure_power_pinned;
        ] );
    ]
end
