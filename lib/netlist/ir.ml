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
  driver : (int * int) option array;  (** net -> (inst, out pin) *)
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
  weight_index : (int * int * int, int) Hashtbl.t;
      (** (row, col, copy) -> storage instance id *)
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
  Array.iter
    (fun inst ->
      Array.iter (fun net -> start.(net + 1) <- start.(net + 1) + 1) inst.ins)
    insts;
  for net = 0 to n_nets - 1 do
    start.(net + 1) <- start.(net + 1) + start.(net)
  done;
  let fanout = Array.make start.(n_nets) 0 in
  let cursor = Array.sub start 1 n_nets in
  Array.iteri
    (fun i inst ->
      Array.iter
        (fun net ->
          cursor.(net) <- cursor.(net) - 1;
          fanout.(cursor.(net)) <- i)
        inst.ins)
    insts;
  (start, fanout)

(** [freeze t] validates and derives the evaluation views. Raises
    {!Multiple_drivers} or {!Combinational_cycle} on malformed input. *)
let freeze (t : t) : design =
  let insts = Vec.to_array t.insts in
  let n_nets = t.n_nets in
  let driver = Array.make n_nets None in
  Array.iteri
    (fun i inst ->
      Array.iteri
        (fun o net ->
          (match driver.(net) with
          | Some _ -> raise (Multiple_drivers net)
          | None -> ());
          driver.(net) <- Some (i, o))
        inst.outs)
    insts;
  let fanout_start, fanout = build_fanout insts n_nets in
  (* Topological order over combinational instances only: sequential and
     storage outputs are sources, so they never appear in the dependency
     graph as producers. *)
  let is_comb i =
    let k = insts.(i).kind in
    (not (Cell.is_sequential k)) && not (Cell.is_storage k)
  in
  let indeg = Array.make (Array.length insts) 0 in
  Array.iteri
    (fun i inst ->
      if is_comb i then
        Array.iter
          (fun net ->
            match driver.(net) with
            | Some (j, _) when is_comb j -> indeg.(i) <- indeg.(i) + 1
            | Some _ | None -> ())
          inst.ins)
    insts;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if is_comb i && d = 0 then Queue.add i queue) indeg;
  let order = Vec.create 0 in
  let seen = ref 0 in
  let n_comb = ref 0 in
  Array.iteri (fun i _ -> if is_comb i then incr n_comb) insts;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    ignore (Vec.push order i);
    incr seen;
    Array.iter
      (fun net ->
        for k = fanout_start.(net) to fanout_start.(net + 1) - 1 do
          let j = fanout.(k) in
          if is_comb j then begin
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then Queue.add j queue
          end
        done)
      insts.(i).outs
  done;
  if !seen <> !n_comb then begin
    (* find one instance stuck in a cycle for the error message *)
    let stuck = ref (-1) in
    Array.iteri
      (fun i d -> if is_comb i && d > 0 && !stuck < 0 then stuck := i)
      indeg;
    raise (Combinational_cycle !stuck)
  end;
  let seq = Vec.create 0 and storage = Vec.create 0 in
  let weight_index = Hashtbl.create 1024 in
  Array.iteri
    (fun i inst ->
      if Cell.is_sequential inst.kind then ignore (Vec.push seq i);
      if Cell.is_storage inst.kind then begin
        ignore (Vec.push storage i);
        match inst.tag with
        | Weight_bit { row; col; copy } ->
            Hashtbl.replace weight_index (row, col, copy) i
        | Plain | Pipeline_reg _ | Subcircuit _ -> ()
      end)
    insts;
  {
    src = t;
    insts;
    n_nets;
    driver;
    fanout_start;
    fanout;
    comb_order = Vec.to_array order;
    seq = Vec.to_array seq;
    storage = Vec.to_array storage;
    weight_index;
  }

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
  Array.iter
    (fun inst ->
      let prm = Library.params lib inst.kind inst.drive in
      let cap = prm.Library.input_cap_ff in
      Array.iter (fun net -> loads.(net) <- loads.(net) +. cap) inst.ins)
    d.insts;
  for net = 0 to d.n_nets - 1 do
    loads.(net) <- loads.(net) +. wire_cap net
  done;
  loads
