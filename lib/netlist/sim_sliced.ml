(** Bit-sliced cycle simulator: up to 63 independent simulations of one
    design, packed one lane per bit of a single native word per net. It
    is the one simulator the compiler runs: search-time and report power,
    subcircuit characterization and every sign-off and differential
    check, at 1 lane or many.

    Gate evaluation is word-level ({!Cell.eval_word_into}): one bitwise
    expression settles a cell for every lane at once, so a run advances
    63 simulations for roughly the cost of one. The lanes are completely
    independent — different inputs, different weights, different
    register histories — which is exactly the shape of the two workloads
    that dominate the compiler:

    - power Monte Carlo: one random MAC replica per lane, so toggle
      statistics converge with a fraction of the wall clock;
    - verification fan-out: spec-fuzzer vectors checked against
      {!Golden} one per lane, with a failing lane shrunk back to a
      single-lane reproduction.

    Lane [l] is bit [l] of its net's word, so every net read and commit
    in {!eval} and {!clock} is a direct array access. This one-word
    slice is the only bit-sliced width (the [packed] engine); DESIGN.md,
    "Bit-sliced engine", records why.

    The settle is event-driven within one topological pass: a net whose
    word changes in any lane marks its consumers dirty, and {!eval}
    re-evaluates only dirty cells. A clean cell's input words are
    unchanged since its last evaluation, and cells are pure functions of
    their inputs, so skipping it leaves every value and counter exactly
    as a full sweep would.

    Toggle accounting stays exact per lane: a net's counter advances by
    [popcount ((old lxor new) land mask)], which is bit-for-bit the sum
    of the per-lane scalar counters; enabled-DFF duty sums enable
    popcounts, and weight writes charge every active lane. OCaml's
    boxed-free [int] has 63 usable bits (one bit of the machine word is
    the pointer tag), hence 63 lanes, not 64. The cross-engine
    conformance suite in test/ proves the equivalence with a scalar
    oracle simulator bit-for-bit. *)

(** Lanes carried per word: the native [int] width (63 on 64-bit hosts),
    and the widest slice {!create} accepts. *)
let word_lanes = Sys.int_size

(* this module is the {!Slice.S} engine [packed] *)
let name = "packed"
let max_lanes = word_lanes

type t = {
  d : Ir.design;
  n_lanes : int;  (** active lanes *)
  mask : int;  (** active-lane mask: [-1] unless the slice is partial *)
  values : int array;  (** lane word per net *)
  seq_state : int array;  (** lane word per instance; sequential slots *)
  storage_state : int array;  (** lane word per instance; storage slots *)
  toggles : int array;
      (** output toggle count per net, summed over all lanes — the exact
          sum of the per-lane scalar counters *)
  en_cycles : int array;
      (** per instance: lane-summed enabled-flip-flop duty *)
  mutable cycles : int;  (** cycles advanced (per lane, not lane-summed) *)
  mutable weight_flips : int;  (** SRAM bits flipped by writes, lane-summed *)
  mutable weight_writes : int;  (** SRAM write ops, lane-summed *)
  scratch_ins : int array;  (** word staging, {!Cell.max_inputs} wide *)
  scratch_outs : int array;  (** same, {!Cell.max_outputs} wide *)
  seq_next : int array;  (** {!clock}'s next-state staging, per seq slot *)
  dirty : Bytes.t;
      (** per instance: non-zero when an input word changed since the
          cell was last evaluated; every cell starts dirty *)
}

let create ?(n_lanes = word_lanes) (d : Ir.design) =
  if n_lanes < 1 || n_lanes > word_lanes then
    invalid_arg
      (Printf.sprintf
         "Sim_sliced.create: requested %d lanes, valid range is 1..%d"
         n_lanes word_lanes);
  let mask = if n_lanes = word_lanes then -1 else (1 lsl n_lanes) - 1 in
  let n = Ir.n_insts d in
  let t =
    {
      d;
      n_lanes;
      mask;
      values = Array.make d.n_nets 0;
      seq_state = Array.make (max n 1) 0;
      storage_state = Array.make (max n 1) 0;
      toggles = Array.make d.n_nets 0;
      en_cycles = Array.make (max n 1) 0;
      cycles = 0;
      weight_flips = 0;
      weight_writes = 0;
      scratch_ins = Array.make Cell.max_inputs 0;
      scratch_outs = Array.make Cell.max_outputs 0;
      seq_next = Array.make (max (Array.length d.seq) 1) 0;
      dirty = Bytes.make (max n 1) '\001';
    }
  in
  t.values.(Ir.const1) <- mask;
  t

let lanes_of t = t.n_lanes

(* Store the lane word [v] (already masked) on [net]: one toggle per
   changed lane, and the net's consumers marked dirty. *)
let commit t net v =
  let old = t.values.(net) in
  if old <> v then begin
    t.values.(net) <- v;
    t.toggles.(net) <- t.toggles.(net) + Intmath.popcount (old lxor v);
    let d = t.d and dirty = t.dirty in
    for k = d.fanout_start.(net) to d.fanout_start.(net + 1) - 1 do
      Bytes.unsafe_set dirty d.fanout.(k) '\001'
    done
  end

(** [set_net t net v] drives [net] with the lane word [v] (masked to the
    active lanes), charging one toggle per lane that changed. [net] must
    not be the output of a combinational cell: {!eval} owns those. *)
let set_net t net v = commit t net (v land t.mask)

let broadcast t bit = if bit then t.mask else 0

(** [set_bus t name v] drives the named input bus with the low bits of
    [v], broadcast identically to every lane — the control-signal path:
    all lanes share one MAC schedule. *)
let set_bus t name v =
  let bus = Ir.input_bus t.d.src name in
  Array.iteri
    (fun i net -> set_net t net (broadcast t ((v asr i) land 1 = 1)))
    bus

(** [set_bus_bits t name bits] drives the named input bus bit by bit,
    broadcast to every lane: the form for buses wider than one [int]. *)
let set_bus_bits t name (bits : bool array) =
  let bus = Ir.input_bus t.d.src name in
  assert (Array.length bits = Array.length bus);
  Array.iteri (fun i net -> set_net t net (broadcast t bits.(i))) bus

(** [set_bus_lanes t name vs] drives the named input bus with a distinct
    integer per lane: bit [i] of [vs.(l)] lands in lane [l] of bus bit
    [i]. Lanes beyond [Array.length vs] are driven to zero. *)
let set_bus_lanes t name (vs : int array) =
  let bus = Ir.input_bus t.d.src name in
  let n = min (Array.length vs) t.n_lanes in
  Array.iteri
    (fun i net ->
      let v = ref 0 in
      for l = 0 to n - 1 do
        v := !v lor (((vs.(l) asr i) land 1) lsl l)
      done;
      set_net t net !v)
    bus

(** [read_bus_lane t name lane] reads the named output bus of one lane as
    an unsigned integer. *)
let read_bus_lane t name lane =
  assert (lane >= 0 && lane < t.n_lanes);
  let bus = Ir.output_bus t.d.src name in
  let v = ref 0 in
  for i = 0 to Array.length bus - 1 do
    if (t.values.(bus.(i)) lsr lane) land 1 = 1 then v := !v lor (1 lsl i)
  done;
  !v

(** [read_bus_signed_lane t name lane] — {!read_bus_lane} as a signed
    two's-complement integer. *)
let read_bus_signed_lane t name lane =
  let bus = Ir.output_bus t.d.src name in
  Intmath.sign_extend ~width:(Array.length bus) (read_bus_lane t name lane)

let lane_bit (state : int array) lane slot = (state.(slot) lsr lane) land 1 = 1

(** [extract_lane t lane] snapshots one lane's net values as a bool
    array, one entry per net — the cross-check hook the conformance
    suite drives. *)
let extract_lane t lane : bool array =
  assert (lane >= 0 && lane < t.n_lanes);
  Array.init t.d.n_nets (fun net -> lane_bit t.values lane net)

(** [seq_state_lane t lane] / [storage_state_lane t lane] — one lane's
    register / SRAM state, one entry per instance, for cross-checking
    against a scalar simulator. *)
let seq_state_lane t lane : bool array =
  assert (lane >= 0 && lane < t.n_lanes);
  Array.init (Array.length t.seq_state) (fun i -> lane_bit t.seq_state lane i)

let storage_state_lane t lane : bool array =
  assert (lane >= 0 && lane < t.n_lanes);
  Array.init (Array.length t.storage_state) (fun i ->
      lane_bit t.storage_state lane i)

(* Write the SRAM weight bit at (row, col, copy) in every active lane
   with the lane word [v]. Every active lane is charged a write, only
   flipped lanes a flip. *)
let write_weight t ~row ~col ~copy v =
  let i = Ir.weight_inst t.d ~row ~col ~copy in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Sim_sliced.write_weight: no weight bit (%d,%d,%d)"
         row col copy);
  t.weight_writes <- t.weight_writes + t.n_lanes;
  let v = v land t.mask in
  let old = t.storage_state.(i) in
  if old <> v then begin
    t.storage_state.(i) <- v;
    t.weight_flips <- t.weight_flips + Intmath.popcount (old lxor v)
  end;
  set_net t (Ir.out_pin t.d i 0) v

(** [set_weight_lanes t ~row ~col ~copy bits] writes one SRAM weight bit
    per lane through its (row, col, copy) address: [bits.(l)] is lane
    [l]'s bit. Lanes beyond [Array.length bits] store [false]. *)
let set_weight_lanes t ~row ~col ~copy (bits : bool array) =
  let n = min (Array.length bits) t.n_lanes in
  let v = ref 0 in
  for l = 0 to n - 1 do
    if bits.(l) then v := !v lor (1 lsl l)
  done;
  write_weight t ~row ~col ~copy !v

(** [set_weight_all t ~row ~col ~copy bit] — the broadcast form: every
    lane stores the same [bit]. *)
let set_weight_all t ~row ~col ~copy bit =
  write_weight t ~row ~col ~copy (broadcast t bit)

(** [eval t] settles all combinational logic, all lanes at once: one
    pass in topological order that evaluates the dirty cells only (a
    changed output dirties its consumers, which come later in the
    order), one {!Cell.eval_word_into} per cell. Complemented cell
    outputs may carry set bits above the active lanes (see {!Cell}), so
    commits mask. Allocation-free: words stage through the simulator's
    scratch buffers. *)
let eval t =
  let d = t.d in
  let ins_buf = t.scratch_ins and outs_buf = t.scratch_outs in
  let values = t.values and mask = t.mask and dirty = t.dirty in
  let kinds = d.kinds and pin_start = d.pin_start and pins = d.pins in
  let n_ins_by_kind = Ir.n_ins_by_kind and order = d.comb_order in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    if Bytes.unsafe_get dirty i <> '\000' then begin
      Bytes.unsafe_set dirty i '\000';
      let kind = Char.code (Bytes.unsafe_get kinds i) in
      let s = pin_start.(i) and n_in = n_ins_by_kind.(kind) in
      for p = 0 to n_in - 1 do
        ins_buf.(p) <- values.(pins.(s + p))
      done;
      Cell.eval_word_into Cell.kinds_by_index.(kind) ins_buf outs_buf;
      for q = s + n_in to pin_start.(i + 1) - 1 do
        commit t pins.(q) (outs_buf.(q - s - n_in) land mask)
      done
    end
  done

(** [clock t] commits every flip-flop in every lane: a plain DFF
    captures D, an enabled DFF captures D lane-wise where EN is high and
    holds elsewhere. Enabled-cycle accounting advances by the popcount
    of the enable word, the lane-summed duty the power model charges.
    New Q words are committed onto the nets, dirtying their consumers;
    call {!eval} afterwards to propagate. *)
let clock t =
  let d = t.d in
  let next = t.seq_next in
  let values = t.values and seq_state = t.seq_state in
  let kinds = d.kinds and pin_start = d.pin_start and pins = d.pins in
  (* a flip-flop's pins: D, then EN for [Dff_en], then Q *)
  Array.iteri
    (fun idx i ->
      let s = pin_start.(i) in
      next.(idx) <-
        (match Cell.kinds_by_index.(Char.code (Bytes.get kinds i)) with
        | Cell.Dff -> values.(pins.(s))
        | Cell.Dff_en ->
            let en = values.(pins.(s + 1)) in
            if en <> 0 then
              t.en_cycles.(i) <- t.en_cycles.(i) + Intmath.popcount en;
            (en land values.(pins.(s))) lor (lnot en land seq_state.(i))
        | _ -> assert false))
    d.seq;
  let mask = t.mask in
  Array.iteri
    (fun idx i ->
      let v = next.(idx) land mask in
      seq_state.(i) <- v;
      commit t pins.(pin_start.(i + 1) - 1) v)
    d.seq;
  t.cycles <- t.cycles + 1

(** [step t] = eval then clock: one full cycle with inputs already set. *)
let step t =
  eval t;
  clock t

(** [reset_stats t] clears toggle and cycle counters (state is kept). *)
let reset_stats t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  Array.fill t.en_cycles 0 (Array.length t.en_cycles) 0;
  t.cycles <- 0;
  t.weight_flips <- 0;
  t.weight_writes <- 0

(* the counters as {!Slice.S} reads them *)
let toggles t = t.toggles
let en_cycles t = t.en_cycles
let cycles t = t.cycles
let weight_flips t = t.weight_flips
let weight_writes t = t.weight_writes
