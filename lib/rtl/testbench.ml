(** Macro test benches: weight loading, single verified MACs, and streaming
    stimulus for power measurement.

    The single-MAC bench is the repository's DRC/LVS/post-simulation
    sign-off equivalent: it drives the generated netlist cycle by cycle and
    compares every word's result against {!Golden}. The streaming bench
    issues back-to-back MACs at full throughput (one MAC per [db] cycles)
    with configurable input/weight sparsity, which is what the paper's
    power measurements use (12.5 % input, 50 % weight sparsity). *)

exception
  Mismatch of {
    word : int;
    expected : int;
    got : int;
    detail : string;
  }

(** A bench-protocol failure that is not a value mismatch: the macro never
    produced a result, or the bench was asked to drive a macro it cannot.
    Structured (operation + detail) so the compiler's diagnostic layer can
    attach the spec context instead of parsing a [failwith] string. *)
exception
  Bench_error of {
    op : string;  (** the bench entry point that failed *)
    detail : string;
  }

(** [load_weights m sim ~copy weights] writes [weights.(word).(row)]
    (signed [wb]-bit integers) into weight copy [copy]. *)
let load_weights (m : Macro_rtl.t) sim ~copy
    (weights : int array array) =
  assert (Array.length weights = m.words);
  Array.iteri
    (fun g per_row ->
      assert (Array.length per_row = m.cfg.rows);
      Array.iteri
        (fun r w ->
          for j = 0 to m.wb - 1 do
            Sim.set_weight sim ~row:r ~col:((g * m.wb) + j) ~copy
              ((w asr j) land 1 = 1)
          done)
        per_row)
    weights

let is_fp (m : Macro_rtl.t) =
  match m.cfg.input_prec with
  | Precision.Fp _ -> true
  | Precision.Int _ -> false

(* The scalar bench drives and reads the macro's ports by net
   ({!Macro_rtl.ports}): no bus-name lookup per row, word or cycle. *)

let set_controls (m : Macro_rtl.t) sim ~load ~sa_en ~sa_clr ~sa_neg =
  match m.ports.controls with
  | None ->
      raise
        (Bench_error
           {
             op = "set_controls";
             detail = "macro was built with the controller FSM";
           })
  | Some c ->
      Sim.set_net sim c.(0) load;
      Sim.set_net sim c.(1) sa_en;
      Sim.set_net sim c.(2) sa_clr;
      Sim.set_net sim c.(3) sa_neg

(** [set_align_en m sim v] drives the FP aligner enable; a no-op when
    the macro has no such input (INT inputs, or the controller drives
    it). *)
let set_align_en (m : Macro_rtl.t) sim v =
  match m.ports.align_en with Some net -> Sim.set_net sim net v | None -> ()

let present_inputs (m : Macro_rtl.t) sim (inputs : int array) =
  assert (Array.length inputs = m.cfg.rows);
  Array.iteri (fun r v -> Sim.set_nets sim m.ports.x.(r) v) inputs

(** [read_results m sim ~shift] — every word's signed result, each
    arithmetically shifted right by [shift]. *)
let read_results (m : Macro_rtl.t) sim ~shift =
  Array.map (fun bus -> Sim.read_nets_signed sim bus asr shift) m.ports.results

(** [run_mac m sim ~inputs] executes one complete MAC with the raw input
    words [inputs] (signed integers for INT, packed bit patterns for FP)
    and returns the per-word signed results. The accumulator schedule
    follows the macro's latency fields.

    [active_bits] is the paper's runtime bit-width flexibility: an INT
    macro built for [db]-bit inputs executes a narrower precision in that
    many serial cycles — the serializer simply stops early (MSB-first
    datapaths take the value pre-shifted into the top bits, LSB-first
    datapaths consume the low bits directly) and the sign cycle moves to
    the narrow width's sign position. Throughput scales accordingly. *)
let run_mac ?active_bits (m : Macro_rtl.t) sim ~(inputs : int array) =
  let ab =
    match active_bits with
    | None -> m.db
    | Some b ->
        assert (b >= 1 && b <= m.db);
        assert (not (is_fp m));
        b
  in
  let inputs =
    if ab = m.db || m.neg_on_last then inputs
    else Array.map (fun v -> v lsl (m.db - ab)) inputs
  in
  present_inputs m sim inputs;
  set_controls m sim ~load:false ~sa_en:false ~sa_clr:false ~sa_neg:false;
  set_align_en m sim true;
  for _ = 1 to m.align_lat do
    Sim.step sim
  done;
  set_align_en m sim false;
  set_controls m sim ~load:true ~sa_en:false ~sa_clr:false ~sa_neg:false;
  Sim.step sim;
  let last = m.tree_lat + ab - 1 in
  for k = 0 to last do
    let first = k = m.tree_lat in
    let sign_cycle = if m.neg_on_last then k = last else first in
    set_controls m sim ~load:false
      ~sa_en:(k >= m.tree_lat)
      ~sa_clr:first
      ~sa_neg:(sign_cycle && ab > 1);
    Sim.step sim
  done;
  set_controls m sim ~load:false ~sa_en:false ~sa_clr:false ~sa_neg:false;
  for _ = 1 to m.post_lat do
    Sim.step sim
  done;
  Sim.eval sim;
  (* LSB-first datapaths place a narrow result at the full-width scale
     (each partial sum lands [db - ab] positions higher); exact shift back *)
  read_results m sim ~shift:(if m.neg_on_last then m.db - ab else 0)

(** [run_mac_auto m sim ~inputs] — the controller-driven variant of
    {!run_mac}: pulse [start], hold the inputs, wait for the [done] pulse
    (bounded by twice the expected latency) and read the results. Only
    valid for macros built with [with_controller = true]. *)
let run_mac_auto (m : Macro_rtl.t) sim ~(inputs : int array) =
  if not m.cfg.with_controller then
    raise
      (Bench_error
         {
           op = "run_mac_auto";
           detail = "macro was built without the controller FSM";
         });
  present_inputs m sim inputs;
  Sim.set_bus sim "start" 1;
  Sim.step sim;
  Sim.set_bus sim "start" 0;
  let limit = 2 * (Macro_rtl.mac_latency m + 2) in
  let rec wait k =
    if k > limit then
      raise
        (Bench_error
           {
             op = "run_mac_auto";
             detail =
               Printf.sprintf "done never asserted within %d cycles" limit;
           });
    Sim.eval sim;
    if Sim.read_bus sim "done" = 1 then ()
    else begin
      Sim.clock sim;
      wait (k + 1)
    end
  in
  wait 0;
  read_results m sim ~shift:0

(** Datapath view of the raw inputs: identity for INT, behavioural
    alignment for FP (also returns the expected group exponent). *)
let datapath_inputs (m : Macro_rtl.t) (inputs : int array) =
  match m.cfg.input_prec with
  | Precision.Int _ -> (inputs, None)
  | Precision.Fp fmt ->
      let a = Align.align fmt inputs in
      (a.values, Some a.group_exp)

(** [check_mac m sim ~weights ~inputs] runs one MAC and raises
    {!Mismatch} if any word (or the FP group exponent) deviates from the
    golden model. [weights] are the datapath (signed integer) weights. *)
let check_mac (m : Macro_rtl.t) sim ~(weights : int array array)
    ~(inputs : int array) =
  let results = run_mac m sim ~inputs in
  let xs, exp_expected = datapath_inputs m inputs in
  (match exp_expected with
  | Some e ->
      let got = Sim.read_bus sim "group_exp" in
      if got <> e then
        raise
          (Mismatch
             { word = -1; expected = e; got; detail = "group exponent" })
  | None -> ());
  Array.iteri
    (fun g got ->
      let expected = Golden.dot ~weights:weights.(g) ~inputs:xs in
      if got <> expected then
        raise
          (Mismatch { word = g; expected; got; detail = "word result" }))
    results;
  results

(** Random raw input for the macro's input precision: a signed integer for
    INT (unsigned bit for INT1), a packed pattern for FP. [density] is the
    probability of a non-zero value (sparsity = 1 - density).

    With [realistic] (used by the power workloads), FP exponents cluster
    around the bias the way trained-network activations do, so most
    mantissas survive alignment; uniform exponents (the verification
    default) would flush almost everything to zero and understate FP
    datapath activity. *)
let random_input ?(realistic = false) rng (m : Macro_rtl.t) ~density =
  match m.cfg.input_prec with
  | Precision.Int 1 -> if Rng.float rng 1.0 < density then 1 else 0
  | Precision.Int w -> Rng.sparse_signed rng ~width:w ~density
  | Precision.Fp fmt ->
      if Rng.float rng 1.0 >= density then 0
      else if not realistic then Fpfmt.random rng fmt
      else begin
        let bias = Fpfmt.bias fmt in
        let exp =
          Intmath.clamp ~lo:1
            ~hi:(Intmath.pow2 fmt.Fpfmt.exp_bits - 1)
            (bias + Rng.int rng 5 - 2)
        in
        let man = Rng.int rng (Intmath.pow2 fmt.Fpfmt.man_bits) in
        Fpfmt.pack fmt ~sign:(Rng.bit rng ~p1:0.5 = 1) ~exp ~man
      end

(** Random datapath weight. *)
let random_weight rng (m : Macro_rtl.t) ~density =
  if m.wb = 1 then if Rng.float rng 1.0 < density then 1 else 0
  else Rng.sparse_signed rng ~width:m.wb ~density

let random_weights rng (m : Macro_rtl.t) ~density =
  Array.init m.words (fun _ ->
      Array.init m.cfg.rows (fun _ -> random_weight rng m ~density))

(* ---------------- bit-sliced bench path ---------------- *)

(** The lane-parallel bench, written once against {!Slice.S}: the
    63-lane [packed] engine and the 1-lane {!Slice.Scalar} adapter both
    run through it. The cross-engine conformance suite pins its sign-off
    verdicts, Mismatch payloads and activity counters to per-lane scalar
    {!Sim} replicas. Instantiate it with [Sliced ((val Engine.slice e))]. *)
module Sliced (E : Slice.S) = struct
  (* the scalar single-MAC checker, before this module shadows the name
     with its sliced counterpart: the reproducer path re-runs through it *)
  let scalar_check_mac = check_mac

  (** [set_controls sim ~load ~sa_en ~sa_clr ~sa_neg] — the sliced
      mirror of {!set_controls}: one MAC schedule broadcast to every
      lane. *)
  let set_controls sim ~load ~sa_en ~sa_clr ~sa_neg =
    E.set_bus sim "load" (if load then 1 else 0);
    E.set_bus sim "sa_en" (if sa_en then 1 else 0);
    E.set_bus sim "sa_clr" (if sa_clr then 1 else 0);
    E.set_bus sim "sa_neg" (if sa_neg then 1 else 0)

  (** [present_inputs_lanes m sim inputs] drives every row bus with a
      distinct word per lane: [inputs.(lane).(row)]. *)
  let present_inputs_lanes (m : Macro_rtl.t) sim
      (inputs : int array array) =
    let n = Array.length inputs in
    assert (n >= 1 && n <= E.lanes_of sim);
    Array.iter (fun per_row -> assert (Array.length per_row = m.cfg.rows))
      inputs;
    let per_lane = Array.make n 0 in
    for r = 0 to m.cfg.rows - 1 do
      for l = 0 to n - 1 do
        per_lane.(l) <- inputs.(l).(r)
      done;
      E.set_bus_lanes sim (Printf.sprintf "x%d" r) per_lane
    done

  (** [load_weights_lanes m sim ~copy weights] writes
      [weights.(lane).(word).(row)] (signed [wb]-bit integers) into
      weight copy [copy], a different weight matrix per lane. Lanes
      beyond [Array.length weights] store lane 0's weights (a harmless
      fill: their outputs are never compared). *)
  let load_weights_lanes (m : Macro_rtl.t) sim ~copy
      (weights : int array array array) =
    let n = Array.length weights in
    assert (n >= 1 && n <= E.lanes_of sim);
    Array.iter
      (fun per_word ->
        assert (Array.length per_word = m.words);
        Array.iter
          (fun per_row -> assert (Array.length per_row = m.cfg.rows))
          per_word)
      weights;
    let n_lanes = E.lanes_of sim in
    let bits = Array.make n_lanes false in
    for g = 0 to m.words - 1 do
      for r = 0 to m.cfg.rows - 1 do
        for j = 0 to m.wb - 1 do
          for l = 0 to n_lanes - 1 do
            let src = weights.(if l < n then l else 0) in
            bits.(l) <- (src.(g).(r) asr j) land 1 = 1
          done;
          E.set_weight_lanes sim ~row:r ~col:((g * m.wb) + j) ~copy bits
        done
      done
    done

  (** [run_mac m sim ~inputs] — the bit-sliced mirror of the top-level
      {!run_mac}: one MAC schedule broadcast to every lane, with a
      distinct input word vector per lane ([inputs.(lane).(row)]).
      Returns the per-word signed results of the driven lanes only:
      [results.(lane).(word)]. The [active_bits] runtime-precision
      contract is identical to the scalar bench's. *)
  let run_mac ?active_bits (m : Macro_rtl.t) sim
      ~(inputs : int array array) =
    let ab =
      match active_bits with
      | None -> m.db
      | Some b ->
          assert (b >= 1 && b <= m.db);
          assert (not (is_fp m));
          b
    in
    let inputs =
      if ab = m.db || m.neg_on_last then inputs
      else Array.map (Array.map (fun v -> v lsl (m.db - ab))) inputs
    in
    present_inputs_lanes m sim inputs;
    set_controls sim ~load:false ~sa_en:false ~sa_clr:false ~sa_neg:false;
    if is_fp m then E.set_bus sim "align_en" 1;
    for _ = 1 to m.align_lat do
      E.step sim
    done;
    if is_fp m then E.set_bus sim "align_en" 0;
    set_controls sim ~load:true ~sa_en:false ~sa_clr:false ~sa_neg:false;
    E.step sim;
    let last = m.tree_lat + ab - 1 in
    for k = 0 to last do
      let first = k = m.tree_lat in
      let sign_cycle = if m.neg_on_last then k = last else first in
      set_controls sim ~load:false
        ~sa_en:(k >= m.tree_lat)
        ~sa_clr:first
        ~sa_neg:(sign_cycle && ab > 1);
      E.step sim
    done;
    set_controls sim ~load:false ~sa_en:false ~sa_clr:false ~sa_neg:false;
    for _ = 1 to m.post_lat do
      E.step sim
    done;
    E.eval sim;
    let scale = if m.neg_on_last then m.db - ab else 0 in
    Array.init (Array.length inputs) (fun l ->
        Array.init m.words (fun g ->
            E.read_bus_signed_lane sim (Printf.sprintf "result%d" g) l
            asr scale))

  (* Judge one lane of a finished sliced MAC with {!check_mac}'s exact
     semantics: FP group exponent first, then words in order; the raised
     {!Mismatch} carries the same payload the scalar bench would raise
     for the same transaction. *)
  let judge_mac_lane (m : Macro_rtl.t) sim ~(weights : int array array)
      ~(inputs : int array) (results : int array) lane =
    let xs, exp_expected = datapath_inputs m inputs in
    (match exp_expected with
    | Some e ->
        let got = E.read_bus_lane sim "group_exp" lane in
        if got <> e then
          raise
            (Mismatch
               { word = -1; expected = e; got; detail = "group exponent" })
    | None -> ());
    Array.iteri
      (fun g got ->
        let expected = Golden.dot ~weights:weights.(g) ~inputs:xs in
        if got <> expected then
          raise
            (Mismatch { word = g; expected; got; detail = "word result" }))
      results

  (** [check_mac m sim ~weights ~inputs] — the sliced counterpart of
      the top-level {!check_mac}: up to [lanes_of sim] independent MAC
      transactions settle in one pass, lane [l] checking [weights.(l)]
      × [inputs.(l)] against {!Golden}. Weights must already be loaded
      per lane ({!load_weights_lanes}). Lanes are judged in order and
      the first divergence raises {!Mismatch} with the scalar bench's
      payload. Returns [results.(lane).(word)]. *)
  let check_mac (m : Macro_rtl.t) sim
      ~(weights : int array array array) ~(inputs : int array array) =
    assert (Array.length weights = Array.length inputs);
    let results = run_mac m sim ~inputs in
    Array.iteri
      (fun l r ->
        judge_mac_lane m sim ~weights:weights.(l) ~inputs:inputs.(l) r l)
      results;
    results

  (** [verify m ~seed ~batches] — the sign-off engine: random weights
      into every copy, then all of a copy's random inputs drawn up-front
      (so the verdict is independent of the engine's lane width), packed
      [E.max_lanes] MAC jobs wide so a whole batch settles per netlist
      pass. One simulator serves every batch and copy. A failing lane is
      re-run through a fresh scalar {!Sim} for a minimal
      single-transaction reproducer: if the re-run confirms, its
      {!Mismatch} is raised verbatim; a divergence only the engine shows
      (a lane bug in the engine itself) is raised with an explicit
      [" (<engine>-only)"] marker instead of being hidden. *)
  let verify (m : Macro_rtl.t) ~seed ~batches =
    let rng = Rng.create seed in
    let psim = E.create m.design in
    if m.cfg.mcr > 1 then E.set_bus psim "copy_sel" 0;
    let n_lanes = E.lanes_of psim in
    let reproduce ~copy ~weights ~inputs ~word ~expected ~got ~detail =
      let sim = Sim.create m.design in
      if m.cfg.mcr > 1 then Sim.set_bus sim "copy_sel" 0;
      load_weights m sim ~copy weights;
      if m.cfg.mcr > 1 then Sim.set_bus sim "copy_sel" copy;
      ignore (scalar_check_mac m sim ~weights ~inputs);
      (* the scalar re-run did not reproduce: surface the sliced payload *)
      let detail = Printf.sprintf "%s (%s-only)" detail E.name in
      raise (Mismatch { word; expected; got; detail })
    in
    for copy = 0 to m.cfg.mcr - 1 do
      let weights = random_weights rng m ~density:1.0 in
      load_weights_lanes m psim ~copy [| weights |];
      if m.cfg.mcr > 1 then E.set_bus psim "copy_sel" copy;
      (* all of the copy's inputs up-front: check_mac performs no draws,
         so the RNG stream does not depend on the lane width *)
      let all =
        Array.init batches (fun _ ->
            Array.init m.cfg.rows (fun _ -> random_input rng m ~density:1.0))
      in
      let pos = ref 0 in
      while !pos < batches do
        let n = min n_lanes (batches - !pos) in
        let chunk = Array.sub all !pos n in
        let results = run_mac m psim ~inputs:chunk in
        for l = 0 to n - 1 do
          try judge_mac_lane m psim ~weights ~inputs:chunk.(l) results.(l) l
          with Mismatch { word; expected; got; detail } ->
            reproduce ~copy ~weights ~inputs:chunk.(l) ~word ~expected ~got
              ~detail
        done;
        pos := !pos + n
      done
    done

  (** [run_stream_with m sim ~next_inputs ~macs] — the bit-sliced
      mirror of the top-level {!run_stream}: [macs] back-to-back
      MACs at full pipeline rate in every lane, [next_inputs k]
      supplying MAC [k]'s per-lane input words. One sliced run gathers
      [lanes_of sim ×] the toggle sample mass of a scalar run of the
      same length — the power Monte Carlo fan-out. Weights must already
      be loaded ({!load_weights_lanes}); statistics should be read from
      [sim] afterwards. *)
  let run_stream_with (m : Macro_rtl.t) sim
      ~(next_inputs : int -> int array array) ~macs =
    let db = m.db in
    let total = m.align_lat + (macs * db) + m.tree_lat + m.post_lat + 1 in
    for cyc = 0 to total - 1 do
      if cyc mod db = 0 && cyc / db < macs then
        present_inputs_lanes m sim (next_inputs (cyc / db));
      let load = cyc >= m.align_lat && (cyc - m.align_lat) mod db = 0
                 && (cyc - m.align_lat) / db < macs in
      let k = cyc - m.align_lat - 1 - m.tree_lat in
      let first_fill = m.align_lat + 1 + m.tree_lat in
      let sa_en = cyc >= first_fill && k < macs * db in
      let sa_clr = sa_en && k mod db = 0 in
      let sa_neg =
        sa_en && db > 1
        && k mod db = (if m.neg_on_last then db - 1 else 0)
      in
      if is_fp m then
        E.set_bus sim "align_en"
          (if cyc mod db < max m.align_lat 1 && cyc / db < macs then 1
           else 0);
      set_controls sim ~load ~sa_en ~sa_clr ~sa_neg;
      E.step sim
    done

  let run_stream (m : Macro_rtl.t) sim ~rng ~macs ~input_density =
    let n_lanes = E.lanes_of sim in
    run_stream_with m sim ~macs ~next_inputs:(fun _ ->
        Array.init n_lanes (fun _ ->
            Array.init m.cfg.rows (fun _ ->
                random_input ~realistic:true rng m ~density:input_density)))
end

(** [verify ?engine m ~seed ~batches] — functional sign-off: random
    weights into every copy, [batches] random MACs per copy checked
    against {!Golden}. Returns unit or raises {!Mismatch}. The engine's
    slice ({!Engine.slice}) runs {!Sliced.verify}: each copy's MACs pack
    as lanes, 63 at a time for the default [`Packed], one at a time for
    [`Scalar], and a failing lane shrinks back to one scalar
    transaction. Every engine draws one identical RNG stream, so the
    verdict — and any Mismatch payload — is engine-independent. *)
let m_verify_runs = Metrics.counter "signoff.verify_runs"
let m_macs_checked = Metrics.counter "signoff.macs_checked"

let verify ?(engine : Engine.t = `Packed) (m : Macro_rtl.t) ~seed ~batches =
  (* Every engine checks the same MACs against the same golden stream,
     so both counts are engine-invariant: deterministic. *)
  Metrics.incr m_verify_runs;
  Metrics.add m_macs_checked (batches * m.cfg.Macro_rtl.mcr);
  let module E = (val Engine.slice engine) in
  let module B = Sliced (E) in
  B.verify m ~seed ~batches

(** [run_stream m sim ~rng ~macs ~input_density] issues [macs] back-to-back
    MACs at full pipeline rate (one per [db] cycles) for power
    measurement; weights must already be loaded. Statistics should be read
    from [sim] afterwards. *)
let run_stream (m : Macro_rtl.t) sim ~rng ~macs ~input_density =
  let db = m.db in
  let total = m.align_lat + (macs * db) + m.tree_lat + m.post_lat + 1 in
  for cyc = 0 to total - 1 do
    (* present the inputs of MAC i during [i*db, (i+1)*db) *)
    if cyc mod db = 0 && cyc / db < macs then
      present_inputs m sim
        (Array.init m.cfg.rows (fun _ ->
             random_input ~realistic:true rng m ~density:input_density));
    let load = cyc >= m.align_lat && (cyc - m.align_lat) mod db = 0
               && (cyc - m.align_lat) / db < macs in
    let k = cyc - m.align_lat - 1 - m.tree_lat in
    (* accumulation window: continuous once the pipeline fills *)
    let first_fill = m.align_lat + 1 + m.tree_lat in
    let sa_en = cyc >= first_fill && k < macs * db in
    let sa_clr = sa_en && k mod db = 0 in
    let sa_neg =
      sa_en && db > 1
      && k mod db = (if m.neg_on_last then db - 1 else 0)
    in
    (* the aligner pipeline advances during each MAC's load window *)
    set_align_en m sim (cyc mod db < max m.align_lat 1 && cyc / db < macs);
    set_controls m sim ~load ~sa_en ~sa_clr ~sa_neg;
    Sim.step sim
  done

(** [power_stream ?seed m ~input_density ~weight_density ~macs] — the
    power-measurement stimulus: seeded random weights in copy 0, cleared
    counters, then {!run_stream} of [macs] MACs, weights and inputs drawn
    from one RNG in that order. Returns the finished simulator for
    {!Power.estimate} to price. *)
let power_stream ?(seed = 0xD1C) (m : Macro_rtl.t) ~input_density
    ~weight_density ~macs =
  let rng = Rng.create seed in
  let sim = Sim.create m.design in
  if m.cfg.mcr > 1 then Sim.set_bus sim "copy_sel" 0;
  load_weights m sim ~copy:0 (random_weights rng m ~density:weight_density);
  Sim.reset_stats sim;
  run_stream m sim ~rng ~macs ~input_density;
  sim

(** [stream_cycles m ~macs] — total simulated cycles of one
    {!run_stream}/{!Sliced.run_stream} run of [macs] MACs; the
    denominator energy-per-MAC accounting divides by. *)
let stream_cycles (m : Macro_rtl.t) ~macs =
  m.align_lat + (macs * m.db) + m.tree_lat + m.post_lat + 1
