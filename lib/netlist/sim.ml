(** Cycle-accurate functional simulator with toggle counting.

    Drives a frozen design one clock cycle at a time: set the primary
    inputs, {!eval} settles combinational logic in topological order,
    {!clock} commits every flip-flop. SRAM storage bits are written through
    {!set_weight} (the BL-driver write path), and every write that flips a
    bit is charged SRAM write energy.

    The settle is event-driven within one topological pass: a net whose
    value changes marks its consumers dirty, and {!eval} re-evaluates only
    dirty cells. A clean cell's inputs are unchanged since its last
    evaluation, and cells are pure functions of their inputs, so skipping
    it leaves every value and counter exactly as a full sweep would.

    Toggle counts per net accumulate across the run; the power engine
    multiplies them by per-cell switching energies. *)

type t = {
  d : Ir.design;
  values : bool array;  (** current value per net *)
  seq_state : bool array;  (** per instance id; only sequential slots used *)
  storage_state : bool array;  (** per instance id; only storage slots used *)
  toggles : int array;  (** output toggle count per net *)
  en_cycles : int array;
      (** per instance: cycles an enabled flip-flop saw its enable high —
          the clock-gating duty the power model charges instead of every
          cycle *)
  mutable cycles : int;
  mutable weight_flips : int;  (** SRAM bits flipped by writes *)
  mutable weight_writes : int;  (** SRAM write operations *)
  scratch_ins : bool array;
      (** {!eval} staging buffer, {!Cell.max_inputs} wide — reused for
          every instance so the settle loop allocates nothing *)
  scratch_outs : bool array;  (** same, {!Cell.max_outputs} wide *)
  seq_next : bool array;  (** {!clock}'s next-state staging, per seq slot *)
  dirty : Bytes.t;
      (** per instance: non-zero when an input changed since the cell was
          last evaluated; every cell starts dirty *)
}

let create (d : Ir.design) =
  let n = Ir.n_insts d in
  let t =
    {
      d;
      values = Array.make d.n_nets false;
      seq_state = Array.make (max n 1) false;
      storage_state = Array.make (max n 1) false;
      toggles = Array.make d.n_nets 0;
      en_cycles = Array.make (max n 1) 0;
      cycles = 0;
      weight_flips = 0;
      weight_writes = 0;
      scratch_ins = Array.make Cell.max_inputs false;
      scratch_outs = Array.make Cell.max_outputs false;
      seq_next = Array.make (max (Array.length d.seq) 1) false;
      dirty = Bytes.make (max n 1) '\001';
    }
  in
  t.values.(Ir.const1) <- true;
  t

(** [set_net t net v] drives [net] to [v], counting a toggle and marking
    its consumers dirty when the value changes. [net] must not be the
    output of a combinational cell: {!eval} owns those. *)
let set_net t net v =
  if t.values.(net) <> v then begin
    t.values.(net) <- v;
    t.toggles.(net) <- t.toggles.(net) + 1;
    let d = t.d in
    for k = d.fanout_start.(net) to d.fanout_start.(net + 1) - 1 do
      Bytes.set t.dirty d.fanout.(k) '\001'
    done
  end

(** [set_nets t bus v] drives the nets of [bus] (LSB first) with the low
    bits of the (possibly signed) integer [v]. *)
let set_nets t (bus : Ir.net array) v =
  for i = 0 to Array.length bus - 1 do
    set_net t bus.(i) ((v asr i) land 1 = 1)
  done

(** [set_bus t name v] drives the named input bus with the low bits of the
    (possibly signed) integer [v]. *)
let set_bus t name v = set_nets t (Ir.input_bus t.d.src name) v

(** [set_bus_bits t name bits] drives the named input bus bit-by-bit. *)
let set_bus_bits t name bits =
  let bus = Ir.input_bus t.d.src name in
  assert (Array.length bits = Array.length bus);
  Array.iteri (fun i net -> set_net t net bits.(i)) bus

(** [read_nets t bus] reads [bus] (LSB first) as an unsigned integer.
    Allocation-free: it runs once per result group per MAC in the bench
    hot path. *)
let read_nets t (bus : Ir.net array) =
  let v = ref 0 in
  for i = 0 to Array.length bus - 1 do
    if t.values.(bus.(i)) then v := !v lor (1 lsl i)
  done;
  !v

(** [read_nets_signed t bus] reads [bus] as a signed two's-complement
    integer. *)
let read_nets_signed t (bus : Ir.net array) =
  Intmath.sign_extend ~width:(Array.length bus) (read_nets t bus)

(** [read_bus t name] reads the named output bus as an unsigned integer. *)
let read_bus t name = read_nets t (Ir.output_bus t.d.src name)

(** [read_bus_signed t name] reads the named output bus as a signed
    two's-complement integer. *)
let read_bus_signed t name = read_nets_signed t (Ir.output_bus t.d.src name)

(** [set_weight t ~row ~col ~copy bit] writes one SRAM weight bit through
    its (row, col, copy) address. *)
let set_weight t ~row ~col ~copy bit =
  let i = Ir.weight_inst t.d ~row ~col ~copy in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Sim.set_weight: no weight bit (%d,%d,%d)" row col copy);
  t.weight_writes <- t.weight_writes + 1;
  if t.storage_state.(i) <> bit then begin
    t.storage_state.(i) <- bit;
    t.weight_flips <- t.weight_flips + 1
  end;
  set_net t (Ir.out_pin t.d i 0) bit

(** [eval t] settles all combinational logic from the current inputs and
    register/storage state: one pass in topological order that evaluates
    the dirty cells only (a changed output dirties its consumers, which
    come later in the order). Allocation-free: inputs and outputs stage
    through the simulator's scratch buffers ({!Cell.eval_into}), which
    matters because this loop runs on every cycle of every power
    simulation the searcher issues. *)
let eval t =
  let d = t.d in
  let ins_buf = t.scratch_ins and outs_buf = t.scratch_outs in
  let values = t.values and dirty = t.dirty in
  let kinds = d.kinds and pin_start = d.pin_start and pins = d.pins in
  let n_ins_by_kind = Ir.n_ins_by_kind and order = d.comb_order in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    if Bytes.get dirty i <> '\000' then begin
      Bytes.set dirty i '\000';
      let kind = Char.code (Bytes.unsafe_get kinds i) in
      let s = pin_start.(i) and n_in = n_ins_by_kind.(kind) in
      for p = 0 to n_in - 1 do
        ins_buf.(p) <- values.(pins.(s + p))
      done;
      Cell.eval_into Cell.kinds_by_index.(kind) ins_buf outs_buf;
      for q = s + n_in to pin_start.(i + 1) - 1 do
        set_net t pins.(q) outs_buf.(q - s - n_in)
      done
    end
  done

(** [clock t] commits every flip-flop: a plain DFF captures D, an
    enabled DFF captures D only when EN is high. New Q values are driven
    onto the nets; call {!eval} afterwards to propagate. *)
let clock t =
  let d = t.d in
  let next = t.seq_next in
  let kinds = d.kinds and pin_start = d.pin_start and pins = d.pins in
  (* a flip-flop's pins: D, then EN for [Dff_en], then Q *)
  Array.iteri
    (fun idx i ->
      let s = pin_start.(i) in
      next.(idx) <-
        (match Cell.kinds_by_index.(Char.code (Bytes.get kinds i)) with
        | Cell.Dff -> t.values.(pins.(s))
        | Cell.Dff_en ->
            if t.values.(pins.(s + 1)) then begin
              t.en_cycles.(i) <- t.en_cycles.(i) + 1;
              t.values.(pins.(s))
            end
            else t.seq_state.(i)
        | _ -> assert false))
    d.seq;
  Array.iteri
    (fun idx i ->
      t.seq_state.(i) <- next.(idx);
      set_net t pins.(pin_start.(i + 1) - 1) next.(idx))
    d.seq;
  t.cycles <- t.cycles + 1

(** [step t] = eval then clock: one full cycle with inputs already set. *)
let step t =
  eval t;
  clock t

(** [reset_stats t] clears toggle and cycle counters (state is kept), so
    warm-up cycles can be excluded from power measurement. *)
let reset_stats t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  Array.fill t.en_cycles 0 (Array.length t.en_cycles) 0;
  t.cycles <- 0;
  t.weight_flips <- 0;
  t.weight_writes <- 0
