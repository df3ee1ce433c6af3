(** Gate-level netlist intermediate representation.

    A netlist is a set of cell instances connected by integer-identified
    nets, with named input/output buses. Nets 0 and 1 are the constant-0
    and constant-1 nets. A netlist under construction is mutable; {!freeze}
    validates it (single driver per net, no combinational cycles) and
    derives the views the simulator, STA and power engines need. *)

type net = int

(** Semantic label attached to an instance so higher layers can address it:
    weight bits are written by the test bench / BL driver model, and
    pipeline registers are what the searcher's retiming moves. *)
type tag =
  | Plain
  | Weight_bit of { row : int; col : int; copy : int }
  | Pipeline_reg of string
  | Subcircuit of string
      (** which paper subcircuit the instance belongs to, e.g. "adder_tree";
          used for per-subcircuit PPA breakdowns *)

type inst = {
  kind : Cell.kind;
  mutable drive : Cell.drive;  (** mutable: the sizing fine-tuning pass *)
  ins : net array;
  outs : net array;
  tag : tag;
}

type t = {
  mutable n_nets : int;
  insts : inst Vec.t;
  mutable rev_inputs : (string * net array) list;
      (** named input buses, most recently added first ({!inputs} gives
          declaration order) *)
  mutable rev_outputs : (string * net array) list;  (** same, outputs *)
  mutable name : string;
}

let const0 : net = 0
let const1 : net = 1

let create ?(name = "top") () =
  let dummy =
    { kind = Cell.Inv; drive = Cell.X1; ins = [||]; outs = [||]; tag = Plain }
  in
  {
    n_nets = 2;
    insts = Vec.create dummy;
    rev_inputs = [];
    rev_outputs = [];
    name;
  }

(** [new_net t] allocates a fresh net. *)
let new_net t =
  let n = t.n_nets in
  t.n_nets <- n + 1;
  n

(** [new_bus t width] allocates [width] fresh nets, LSB first. *)
let new_bus t width = Array.init width (fun _ -> new_net t)

(** [add t kind ~ins ~outs] appends an instance and returns its id. *)
let add ?(tag = Plain) ?(drive = Cell.X1) t kind ~ins ~outs =
  assert (Array.length ins = Cell.n_inputs kind);
  assert (Array.length outs = Cell.n_outputs kind);
  Vec.push t.insts { kind; drive; ins; outs; tag }

(** [add_input t name bus] registers a named primary input bus. O(1): a
    macro declares one bus per row. *)
let add_input t name bus = t.rev_inputs <- (name, bus) :: t.rev_inputs

(** [add_output t name bus] registers a named primary output bus. *)
let add_output t name bus = t.rev_outputs <- (name, bus) :: t.rev_outputs

(** [inputs t] — the named input buses in declaration order (the order
    ports are emitted in, e.g. by {!Verilog}). *)
let inputs t = List.rev t.rev_inputs

(** [outputs t] — the named output buses in declaration order. *)
let outputs t = List.rev t.rev_outputs

let find_bus buses name =
  match List.assoc_opt name buses with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir: no bus named %s" name)

let input_bus t = find_bus t.rev_inputs
let output_bus t = find_bus t.rev_outputs

(** A frozen, validated netlist with derived connectivity. *)
type design = {
  src : t;
  insts : inst array;
  n_nets : int;
  driver_inst : int array;
      (** net -> driving instance id, [-1] when nothing drives the net
          (the constants and primary inputs) *)
  driver_pin : int array;
      (** net -> the output pin of [driver_inst] that drives it; [-1]
          where [driver_inst] is [-1] *)
  fanout_start : int array;
      (** length [n_nets + 1]: net [n]'s consumers are
          [fanout.(fanout_start.(n)) .. fanout.(fanout_start.(n + 1) - 1)] *)
  fanout : int array;
      (** consumer instance ids, one per (instance, input pin) incidence;
          within a net in descending (instance, pin) order *)
  comb_order : int array;
      (** combinational instances in topological evaluation order *)
  seq : int array;  (** DFF-like instances *)
  storage : int array;  (** SRAM storage instances *)
  weight_rows : int;
  weight_cols : int;
  weight_copies : int;
      (** one more than the largest [Weight_bit] row, column and copy;
          all zero in a design without weights *)
  weight_index : int array;
      (** [(row * weight_cols + col) * weight_copies + copy] -> storage
          instance id, or [-1] where no [Weight_bit] has that address;
          read it through {!weight_inst} *)
}

exception Multiple_drivers of net
exception Combinational_cycle of int

(* Compressed sparse row fanout: count each net's input-pin incidences,
   prefix-sum the counts into segment starts, then fill every segment
   from its end while walking instances and pins in ascending order —
   which lists each net's consumers in descending (instance, pin)
   order. *)
let build_fanout (insts : inst array) n_nets =
  let start = Array.make (n_nets + 1) 0 in
  for i = 0 to Array.length insts - 1 do
    let ins = insts.(i).ins in
    for p = 0 to Array.length ins - 1 do
      let net = ins.(p) in
      start.(net + 1) <- start.(net + 1) + 1
    done
  done;
  for net = 0 to n_nets - 1 do
    start.(net + 1) <- start.(net + 1) + start.(net)
  done;
  let fanout = Array.make start.(n_nets) 0 in
  let cursor = Array.sub start 1 n_nets in
  for i = 0 to Array.length insts - 1 do
    let ins = insts.(i).ins in
    for p = 0 to Array.length ins - 1 do
      let net = ins.(p) in
      cursor.(net) <- cursor.(net) - 1;
      fanout.(cursor.(net)) <- i
    done
  done;
  (start, fanout)

(** [freeze t] validates and derives the evaluation views. Raises
    {!Multiple_drivers} or {!Combinational_cycle} on malformed input, and
    [Invalid_argument] on a [Weight_bit] with a negative coordinate. *)
let freeze (t : t) : design =
  let insts = Vec.to_array t.insts in
  let n_insts = Array.length insts in
  let n_nets = t.n_nets in
  let driver_inst = Array.make n_nets (-1) in
  let driver_pin = Array.make n_nets (-1) in
  for i = 0 to n_insts - 1 do
    let outs = insts.(i).outs in
    for o = 0 to Array.length outs - 1 do
      let net = outs.(o) in
      if driver_inst.(net) >= 0 then raise (Multiple_drivers net);
      driver_inst.(net) <- i;
      driver_pin.(net) <- o
    done
  done;
  let fanout_start, fanout = build_fanout insts n_nets in
  (* Topological order over combinational instances only: sequential and
     storage outputs are sources, so they never appear in the dependency
     graph as producers. [comb] is the combinational mask; [queue] is the
     Kahn FIFO, and since every combinational instance enters it at most
     once, its popped prefix is the evaluation order itself. *)
  let comb = Bytes.make n_insts '\000' in
  let n_comb = ref 0 and n_seq = ref 0 and n_storage = ref 0 in
  for i = 0 to n_insts - 1 do
    let k = insts.(i).kind in
    if Cell.is_sequential k then incr n_seq
    else if Cell.is_storage k then incr n_storage
    else begin
      Bytes.unsafe_set comb i '\001';
      incr n_comb
    end
  done;
  let is_comb i = Bytes.unsafe_get comb i = '\001' in
  let indeg = Array.make n_insts 0 in
  for i = 0 to n_insts - 1 do
    if is_comb i then begin
      let ins = insts.(i).ins in
      for p = 0 to Array.length ins - 1 do
        let j = driver_inst.(ins.(p)) in
        if j >= 0 && is_comb j then indeg.(i) <- indeg.(i) + 1
      done
    end
  done;
  let queue = Array.make !n_comb 0 in
  let tail = ref 0 in
  for i = 0 to n_insts - 1 do
    if is_comb i && indeg.(i) = 0 then begin
      queue.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let outs = insts.(queue.(!head)).outs in
    incr head;
    for o = 0 to Array.length outs - 1 do
      let net = outs.(o) in
      for k = fanout_start.(net) to fanout_start.(net + 1) - 1 do
        let j = fanout.(k) in
        if is_comb j then begin
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then begin
            queue.(!tail) <- j;
            incr tail
          end
        end
      done
    done
  done;
  if !tail <> !n_comb then begin
    (* find one instance stuck in a cycle for the error message *)
    let stuck = ref (-1) in
    for i = n_insts - 1 downto 0 do
      if is_comb i && indeg.(i) > 0 then stuck := i
    done;
    raise (Combinational_cycle !stuck)
  end;
  let seq = Array.make !n_seq 0 and storage = Array.make !n_storage 0 in
  let rows = ref 0 and cols = ref 0 and copies = ref 0 in
  n_seq := 0;
  n_storage := 0;
  for i = 0 to n_insts - 1 do
    let inst = insts.(i) in
    if Cell.is_sequential inst.kind then begin
      seq.(!n_seq) <- i;
      incr n_seq
    end
    else if Cell.is_storage inst.kind then begin
      storage.(!n_storage) <- i;
      incr n_storage;
      match inst.tag with
      | Weight_bit { row; col; copy } ->
          if row < 0 || col < 0 || copy < 0 then
            invalid_arg
              (Printf.sprintf "Ir.freeze: negative weight address (%d,%d,%d)"
                 row col copy);
          rows := max !rows (row + 1);
          cols := max !cols (col + 1);
          copies := max !copies (copy + 1)
      | Plain | Pipeline_reg _ | Subcircuit _ -> ()
    end
  done;
  let rows = !rows and cols = !cols and copies = !copies in
  let weight_index = Array.make (rows * cols * copies) (-1) in
  Array.iter
    (fun i ->
      match insts.(i).tag with
      | Weight_bit { row; col; copy } ->
          weight_index.((((row * cols) + col) * copies) + copy) <- i
      | Plain | Pipeline_reg _ | Subcircuit _ -> ())
    storage;
  {
    src = t;
    insts;
    n_nets;
    driver_inst;
    driver_pin;
    fanout_start;
    fanout;
    comb_order = queue;
    seq;
    storage;
    weight_rows = rows;
    weight_cols = cols;
    weight_copies = copies;
    weight_index;
  }

(** [driver d net] is [Some (inst, out_pin)] for the instance output
    driving [net], [None] for an undriven net. *)
let driver d net =
  let i = d.driver_inst.(net) in
  if i < 0 then None else Some (i, d.driver_pin.(net))

(** [weight_inst d ~row ~col ~copy] is the storage instance holding the
    weight bit at that address, or [-1] when there is none — including
    any negative or out-of-range coordinate, each checked on its own so
    no address aliases another cell. *)
let weight_inst d ~row ~col ~copy =
  if
    row < 0 || row >= d.weight_rows || col < 0 || col >= d.weight_cols
    || copy < 0 || copy >= d.weight_copies
  then -1
  else d.weight_index.((((row * d.weight_cols) + col) * d.weight_copies) + copy)

(** [n_insts d] is the number of instances. *)
let n_insts d = Array.length d.insts

(** [fanout_count d net] is the number of input pins [net] drives. *)
let fanout_count d net = d.fanout_start.(net + 1) - d.fanout_start.(net)

(** [fanout_load d lib ~wire_cap net] is the capacitive load on [net]: the
    input-pin capacitance of every consumer plus optional routed-wire
    capacitance from the layout. *)
let fanout_load (d : design) (lib : Library.t) ?(wire_cap = fun _ -> 0.0) net =
  let pins = ref 0.0 in
  for k = d.fanout_start.(net) to d.fanout_start.(net + 1) - 1 do
    let inst = d.insts.(d.fanout.(k)) in
    pins := !pins +. (Library.params lib inst.kind inst.drive).input_cap_ff
  done;
  !pins +. wire_cap net

(** [fanout_loads d lib ~wire_cap ()] — {!fanout_load} for every net at
    once, as one array indexed by net id. STA forward/backward passes and
    the power estimator all walk loads per net per iteration; computing
    the map once per frozen design (per sizing round — loads depend on
    the mutable instance drives) and sharing it replaces thousands of
    per-net fanout walks per evaluation. *)
let fanout_loads (d : design) (lib : Library.t) ?(wire_cap = fun _ -> 0.0) ()
    : float array =
  let loads = Array.make d.n_nets 0.0 in
  for i = 0 to Array.length d.insts - 1 do
    let inst = d.insts.(i) in
    let cap = (Library.params lib inst.kind inst.drive).Library.input_cap_ff in
    let ins = inst.ins in
    for p = 0 to Array.length ins - 1 do
      let net = ins.(p) in
      loads.(net) <- loads.(net) +. cap
    done
  done;
  for net = 0 to d.n_nets - 1 do
    loads.(net) <- loads.(net) +. wire_cap net
  done;
  loads
