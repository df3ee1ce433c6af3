(** Macro test benches: weight loading, single verified MACs, the MAC
    checker, and streaming stimulus for power measurement.

    The MAC checker is the repository's DRC/LVS/post-simulation sign-off
    equivalent: it drives the generated netlist cycle by cycle and
    compares every word's result against {!Golden}. The streaming bench
    issues back-to-back MACs at full throughput (one MAC per [db] cycles)
    with configurable input/weight sparsity, which is what the paper's
    power measurements use (12.5 % input, 50 % weight sparsity).

    Each schedule exists once, in {!Body}, written against {!Slice.S}.
    {!Body.check_jobs} is the one MAC checker: a list of {!job}s packs
    as lanes, [E.max_lanes] per fresh simulator, and the first failing
    job shrinks to a 1-lane reproducer. Two builders feed it: sign-off
    ({!Sliced.verify}) and the differential checker ([Diffcheck]).
    {!Single} narrows the body to one MAC on lane 0; the top-level entry
    points ({!load_weights}, {!run_mac}, {!check_mac}, {!run_mac_auto})
    are that view over a 1-lane {!Sim_sliced}, and {!power_stream} is
    the body's stream at any lane count. *)

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

(** A searcher-move defect the differential checker injects into the MAC
    schedule ([Diffcheck.bug]). *)
type fault =
  | Retime_early_sample
      (** read the result one cycle before the retimed pipeline commits *)
  | Skip_sign_cycle  (** never assert [sa_neg]: the two's-complement bug *)

(** One MAC transaction for the checker ({!Body.check_jobs}). *)
type job = {
  name : string;  (** the label a failure reports *)
  weights : int array array;  (** [word][row], signed datapath weights *)
  inputs : int array;  (** [row], raw macro inputs (packed bits for FP) *)
  copy : int;  (** the weight copy the job stores its weights in and reads *)
}

(** The checker's first divergence: the failing job and its {!Mismatch}
    payload. *)
type failure = {
  job : job;
  word : int;
  expected : int;
  got : int;
  detail : string;
  marker : string;  (** [" (<engine>-only)"] if the 1-lane re-run passed *)
}

let is_fp (m : Macro_rtl.t) =
  match m.cfg.input_prec with
  | Precision.Fp _ -> true
  | Precision.Int _ -> false

(** Datapath view of the raw inputs: identity for INT, behavioural
    alignment for FP (also returns the expected group exponent). *)
let datapath_inputs (m : Macro_rtl.t) (inputs : int array) =
  match m.cfg.input_prec with
  | Precision.Int _ -> (inputs, None)
  | Precision.Fp fmt ->
      let a = Align.align fmt inputs in
      (a.values, Some a.group_exp)

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

(* ---------------- the bench body ---------------- *)

(** The bench, written once against {!Slice.S}: one weight-load loop,
    one MAC schedule, one lane judge, one MAC checker and one stream
    schedule. Any {!Slice.S} runs through it, at 1 lane or many; every
    lane sees the same control schedule and its own inputs and weights.
    Ports are driven and read by bus name. *)
module Body (E : Slice.S) = struct
  (** [set_controls m sim ~load ~sa_en ~sa_clr ~sa_neg] drives one step
      of the MAC schedule, broadcast to every lane. Raises
      {!Bench_error} when the macro's embedded controller drives these
      pins. *)
  let set_controls (m : Macro_rtl.t) sim ~load ~sa_en ~sa_clr ~sa_neg =
    if m.cfg.with_controller then
      raise
        (Bench_error
           {
             op = "set_controls";
             detail = "macro was built with the controller FSM";
           });
    E.set_bus sim "load" (Bool.to_int load);
    E.set_bus sim "sa_en" (Bool.to_int sa_en);
    E.set_bus sim "sa_clr" (Bool.to_int sa_clr);
    E.set_bus sim "sa_neg" (Bool.to_int sa_neg)

  (** [set_align_en m sim v] drives the FP aligner enable; a no-op on
      INT macros, which have no aligner. *)
  let set_align_en (m : Macro_rtl.t) sim v =
    if is_fp m then E.set_bus sim "align_en" (Bool.to_int v)

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

  (** [read_results m sim ~n ~shift] — the signed result of every word
      in lanes [0 .. n-1], each arithmetically shifted right by [shift]:
      [results.(lane).(word)]. *)
  let read_results (m : Macro_rtl.t) sim ~n ~shift =
    Array.init n (fun l ->
        Array.init m.words (fun g ->
            E.read_bus_signed_lane sim (Printf.sprintf "result%d" g) l
            asr shift))

  (** [run_mac m sim ~inputs] executes one complete MAC in every lane,
      with the raw input words [inputs.(lane).(row)] (signed integers
      for INT, packed bit patterns for FP), and returns the per-word
      signed results of the driven lanes: [results.(lane).(word)]. The
      accumulator schedule follows the macro's latency fields.

      [active_bits] is the paper's runtime bit-width flexibility: an INT
      macro built for [db]-bit inputs executes a narrower precision in
      that many serial cycles — the serializer simply stops early
      (MSB-first datapaths take the value pre-shifted into the top
      bits, LSB-first datapaths consume the low bits directly) and the
      sign cycle moves to the narrow width's sign position. Throughput
      scales accordingly.

      [fault] injects a {!fault} into the schedule; only the
      differential checker passes one. *)
  let run_mac ?active_bits ?fault (m : Macro_rtl.t) sim
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
    set_controls m sim ~load:false ~sa_en:false ~sa_clr:false ~sa_neg:false;
    set_align_en m sim true;
    for _ = 1 to m.align_lat do
      E.step sim
    done;
    set_align_en m sim false;
    set_controls m sim ~load:true ~sa_en:false ~sa_clr:false ~sa_neg:false;
    E.step sim;
    let last = m.tree_lat + ab - 1 in
    for k = 0 to last do
      let first = k = m.tree_lat in
      let sign_cycle = if m.neg_on_last then k = last else first in
      set_controls m sim ~load:false
        ~sa_en:(k >= m.tree_lat)
        ~sa_clr:first
        ~sa_neg:(sign_cycle && ab > 1 && fault <> Some Skip_sign_cycle);
      E.step sim
    done;
    set_controls m sim ~load:false ~sa_en:false ~sa_clr:false ~sa_neg:false;
    let post_lat =
      if fault = Some Retime_early_sample then max 0 (m.post_lat - 1)
      else m.post_lat
    in
    for _ = 1 to post_lat do
      E.step sim
    done;
    E.eval sim;
    (* LSB-first datapaths place a narrow result at the full-width scale
       (each partial sum lands [db - ab] positions higher); exact shift
       back *)
    read_results m sim ~n:(Array.length inputs)
      ~shift:(if m.neg_on_last then m.db - ab else 0)

  (* Judge one lane of a finished MAC against {!Golden}: FP group
     exponent first, then words in order; the first divergence raises
     {!Mismatch}. *)
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

  (** [check_mac m sim ~weights ~inputs] — up to [lanes_of sim]
      independent MAC transactions settle in one pass, lane [l] checking
      the datapath (signed integer) weights [weights.(l)] × [inputs.(l)]
      against {!Golden}. Weights must already be loaded per lane
      ({!load_weights_lanes}). Lanes are judged in order and the first
      divergence raises {!Mismatch}. Returns [results.(lane).(word)]. *)
  let check_mac (m : Macro_rtl.t) sim
      ~(weights : int array array array) ~(inputs : int array array) =
    assert (Array.length weights = Array.length inputs);
    let results = run_mac m sim ~inputs in
    Array.iteri
      (fun l r ->
        judge_mac_lane m sim ~weights:weights.(l) ~inputs:inputs.(l) r l)
      results;
    results

  (* Load, run and judge one chunk on a fresh simulator, one lane per
     job: each lane stores its own weights in the copy it reads, the
     copy's [fill] weights in every other copy the jobs use, and
     (MCR > 1) selects its copy through a per-lane [copy_sel]. Lanes are
     judged in job order up to the first divergence: the comparisons
     made and the failure. *)
  let run_chunk ?fault (m : Macro_rtl.t) ~fill (chunk : job array) =
    let sim = E.create ~n_lanes:(Array.length chunk) m.design in
    Array.iteri
      (fun c ->
        Option.iter (fun w ->
            load_weights_lanes m sim ~copy:c
              (Array.map (fun j -> if j.copy = c then j.weights else w) chunk)))
      fill;
    if m.cfg.mcr > 1 then
      E.set_bus_lanes sim "copy_sel" (Array.map (fun j -> j.copy) chunk);
    let results =
      run_mac ?fault m sim ~inputs:(Array.map (fun j -> j.inputs) chunk)
    in
    let exp = if is_fp m then 1 else 0 in
    let rec judge l checks =
      if l >= Array.length chunk then (checks, None)
      else
        let job = chunk.(l) in
        match
          judge_mac_lane m sim ~weights:job.weights ~inputs:job.inputs
            results.(l) l
        with
        | () -> judge (l + 1) (checks + exp + m.words)
        | exception Mismatch { word; expected; got; detail } ->
            ( checks + exp + word + 1,
              Some { job; word; expected; got; detail; marker = "" } )
    in
    judge 0 0

  (** [check_jobs ?fault m jobs] — the MAC checker: the comparisons
      made and the first failure. Jobs pack as lanes, [E.max_lanes] per
      fresh simulator, and are judged in job order, so the result is
      independent of the lane width. Every copy the jobs read holds, in
      the lanes that do not read it, the weights of its first job, so a
      copy-select mux that leaks another copy reads as a wrong sum. The
      first failing job re-runs alone on a 1-lane chunk, a minimal
      reproducer: its failure wins if it confirms; a divergence only the
      wide run shows (a lane bug in the engine itself) gets the
      [" (<engine>-only)"] marker. *)
  let check_jobs ?fault (m : Macro_rtl.t) (jobs : job array) =
    let fill = Array.make m.cfg.mcr None in
    Array.iter
      (fun j ->
        if Option.is_none fill.(j.copy) then fill.(j.copy) <- Some j.weights)
      jobs;
    let total = Array.length jobs in
    let rec chunks pos checks =
      if pos >= total then (checks, None)
      else
        let n = min E.max_lanes (total - pos) in
        match run_chunk ?fault m ~fill (Array.sub jobs pos n) with
        | c, None -> chunks (pos + n) (checks + c)
        | c, Some f ->
            let f =
              match run_chunk ?fault m ~fill [| f.job |] with
              | _, Some f -> f
              | _, None -> { f with marker = " (" ^ E.name ^ "-only)" }
            in
            (checks + c, Some f)
    in
    chunks 0 0

  (** [run_stream_with m sim ~next_inputs ~macs] issues [macs]
      back-to-back MACs at full pipeline rate (one per [db] cycles) in
      every lane, [next_inputs k] supplying MAC [k]'s per-lane input
      words. One sliced run gathers [lanes_of sim ×] the toggle sample
      mass of a 1-lane run of the same length — the power Monte Carlo
      fan-out. Weights must already be loaded ({!load_weights_lanes});
      statistics should be read from [sim] afterwards. *)
  let run_stream_with (m : Macro_rtl.t) sim
      ~(next_inputs : int -> int array array) ~macs =
    let db = m.db in
    let total = m.align_lat + (macs * db) + m.tree_lat + m.post_lat + 1 in
    for cyc = 0 to total - 1 do
      (* present the inputs of MAC i during [i*db, (i+1)*db) *)
      if cyc mod db = 0 && cyc / db < macs then
        present_inputs_lanes m sim (next_inputs (cyc / db));
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
      set_controls m sim ~load ~sa_en ~sa_clr ~sa_neg;
      (* the aligner pipeline advances during each MAC's load window *)
      set_align_en m sim (cyc mod db < max m.align_lat 1 && cyc / db < macs);
      E.step sim
    done

  (** [run_stream m sim ~rng ~macs ~input_density] — {!run_stream_with}
      on realistic random inputs drawn from [rng], lane by lane. *)
  let run_stream (m : Macro_rtl.t) sim ~rng ~macs ~input_density =
    let n_lanes = E.lanes_of sim in
    run_stream_with m sim ~macs ~next_inputs:(fun _ ->
        Array.init n_lanes (fun _ ->
            Array.init m.cfg.rows (fun _ ->
                random_input ~realistic:true rng m ~density:input_density)))

  (** [power_stream ?seed ?n_lanes m ~input_density ~weight_density
      ~macs] — the power-measurement stimulus: seeded random weights in
      copy 0 (one matrix per lane), cleared counters, then
      {!run_stream} of [macs] MACs, weights and inputs drawn from one
      RNG in that order. Returns the finished simulator for the power
      model to price. *)
  let power_stream ?(seed = 0xD1C) ?n_lanes (m : Macro_rtl.t)
      ~input_density ~weight_density ~macs =
    let rng = Rng.create seed in
    let sim = E.create ?n_lanes m.design in
    if m.cfg.mcr > 1 then E.set_bus sim "copy_sel" 0;
    load_weights_lanes m sim ~copy:0
      (Array.init (E.lanes_of sim) (fun _ ->
           random_weights rng m ~density:weight_density));
    E.reset_stats sim;
    run_stream m sim ~rng ~macs ~input_density;
    sim
end

(* ---------------- the single-MAC bench ---------------- *)

(** The body narrowed to one transaction on lane 0 of [E]: the bench a
    test, an example or an integrator drives one MAC at a time. *)
module Single (E : Slice.S) = struct
  module Lanes = Body (E)

  (** [load_weights m sim ~copy weights] writes [weights.(word).(row)]
      (signed [wb]-bit integers) into weight copy [copy]. *)
  let load_weights m sim ~copy weights =
    Lanes.load_weights_lanes m sim ~copy [| weights |]

  let set_controls = Lanes.set_controls
  let present_inputs m sim inputs =
    Lanes.present_inputs_lanes m sim [| inputs |]

  (** [run_mac ?active_bits m sim ~inputs] — one MAC on the raw input
      words [inputs.(row)]; returns the per-word signed results
      ({!Body.run_mac}). *)
  let run_mac ?active_bits m sim ~inputs =
    (Lanes.run_mac ?active_bits m sim ~inputs:[| inputs |]).(0)

  (** [check_mac m sim ~weights ~inputs] runs one MAC and raises
      {!Mismatch} if any word (or the FP group exponent) deviates from
      the golden model. [weights] are the datapath (signed integer)
      weights. *)
  let check_mac m sim ~weights ~inputs =
    (Lanes.check_mac m sim ~weights:[| weights |] ~inputs:[| inputs |]).(0)

  (** [run_mac_auto m sim ~inputs] — the controller-driven variant of
      {!run_mac}: pulse [start], hold the inputs, wait for the [done]
      pulse (bounded by twice the expected latency) and read the
      results. Only valid for macros built with
      [with_controller = true]. *)
  let run_mac_auto (m : Macro_rtl.t) sim ~(inputs : int array) =
    if not m.cfg.with_controller then
      raise
        (Bench_error
           {
             op = "run_mac_auto";
             detail = "macro was built without the controller FSM";
           });
    present_inputs m sim inputs;
    E.set_bus sim "start" 1;
    E.step sim;
    E.set_bus sim "start" 0;
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
      E.eval sim;
      if E.read_bus_lane sim "done" 0 = 1 then ()
      else begin
        E.clock sim;
        wait (k + 1)
      end
    in
    wait 0;
    (Lanes.read_results m sim ~n:1 ~shift:0).(0)
end

(** The single-MAC bench over a 1-lane {!Sim_sliced}
    ([Sim_sliced.create ~n_lanes:1]). *)
include Single (Slice.Packed)

(** [power_stream ?seed ?n_lanes m ~input_density ~weight_density ~macs]
    — the power-measurement stimulus ({!Body.power_stream}) on a
    {!Sim_sliced} of [n_lanes] replicas (default one word), for
    {!Power.estimate} to price. *)
let power_stream = Lanes.power_stream

(* ---------------- the sliced bench and sign-off ---------------- *)

(** The body on any engine, plus the sign-off job builder. The
    cross-engine conformance suite pins its verdicts, Mismatch payloads
    and activity counters to a scalar oracle simulator. Instantiate it
    with [Sliced ((val Engine.slice e))]. *)
module Sliced (E : Slice.S) = struct
  include Body (E)

  (** [verify m ~seed ~batches] — the sign-off job builder: per copy,
      random weights and then [batches] random inputs, drawn before any
      simulation so the stimulus does not depend on the lane width.
      Every copy's jobs share {!check_jobs}'s chunks, so the macro signs
      off in [ceil (batches * mcr / E.max_lanes)] passes; the first
      failure is raised as {!Mismatch}. *)
  let verify (m : Macro_rtl.t) ~seed ~batches =
    let rng = Rng.create seed in
    let jobs =
      Array.init m.cfg.mcr (fun copy ->
          let weights = random_weights rng m ~density:1.0 in
          Array.init batches (fun _ ->
              let inputs =
                Array.init m.cfg.rows (fun _ -> random_input rng m ~density:1.0)
              in
              { name = "signoff"; weights; inputs; copy }))
    in
    match check_jobs m (Array.concat (Array.to_list jobs)) with
    | _, None -> ()
    | _, Some { word; expected; got; detail; marker; _ } ->
        raise (Mismatch { word; expected; got; detail = detail ^ marker })
end

let m_verify_runs = Metrics.counter "signoff.verify_runs"
let m_macs_checked = Metrics.counter "signoff.macs_checked"

(** [verify ?engine m ~seed ~batches] — functional sign-off:
    {!Sliced.verify} on the engine's slice ({!Engine.slice}), [batches]
    random MACs per weight copy checked against {!Golden}. Returns unit
    or raises {!Mismatch}; the stimulus does not depend on the lane
    width, so the verdict — and any Mismatch payload — is
    engine-independent. *)
let verify ?(engine : Engine.t = `Packed) (m : Macro_rtl.t) ~seed ~batches =
  (* Every engine checks the same MACs against the same golden stream,
     so both counts are engine-invariant: deterministic. *)
  Metrics.incr m_verify_runs;
  Metrics.add m_macs_checked (batches * m.cfg.Macro_rtl.mcr);
  let module E = (val Engine.slice engine) in
  let module B = Sliced (E) in
  B.verify m ~seed ~batches
