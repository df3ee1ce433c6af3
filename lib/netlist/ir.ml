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

(** [tag_label tag] — the subcircuit a tag is accounted under in the
    per-subcircuit power and area breakdowns. *)
let tag_label = function
  | Subcircuit s -> s
  | Weight_bit _ -> "memory_cell"
  | Pipeline_reg _ -> "pipeline"
  | Plain -> "other"

(* Tag encoding in the tag column: a non-negative value is an index into
   the netlist's interned tag table; a [Weight_bit] whose coordinates
   each fit in [coord_bits] bits is packed into one negative int
   instead, so the thousands of bit cells need no table entry and no
   heap block. Any other weight address (a negative coordinate, which
   {!freeze} rejects, or a huge one) is interned like the other tags. *)
let coord_bits = 20
let coord_mask = (1 lsl coord_bits) - 1

let[@inline] packable c = c >= 0 && c <= coord_mask

let[@inline] pack_weight row col copy =
  lnot ((((row lsl coord_bits) lor col) lsl coord_bits) lor copy)

let[@inline] packed_row v = lnot v lsr (2 * coord_bits)
let[@inline] packed_col v = (lnot v lsr coord_bits) land coord_mask
let[@inline] packed_copy v = lnot v land coord_mask

(** A netlist under construction, stored as columns: instance [i]'s kind
    ({!Cell.kind_index}), drive ({!Cell.drive_index}) and tag code sit at
    index [i] of their columns, and its pins — inputs in pin order, then
    outputs — are [pins.(pin_start.(i)) .. pins.(pin_start.(i + 1) - 1)].
    {!add} copies into these arrays, so building a netlist creates no
    heap block per instance. *)
type t = {
  mutable n_nets : int;
  mutable count : int;  (** instances added so far *)
  mutable kind_col : Bytes.t;
  mutable drive_col : Bytes.t;
  mutable tag_col : int array;
  mutable pin_start : int array;  (** [count + 1] live entries *)
  mutable pins : int array;
  tag_table : tag Vec.t;  (** interned tags; [Plain] is entry 0 *)
  tag_ids : (tag, int) Hashtbl.t;
  mutable last_tag : tag;
      (** the last non-weight tag interned, and its id: builders pass one
          tag value for a whole block, so most adds skip the hash *)
  mutable last_tag_id : int;
  mutable rev_inputs : (string * net array) list;
      (** named input buses, most recently added first ({!inputs} gives
          declaration order) *)
  mutable rev_outputs : (string * net array) list;  (** same, outputs *)
  input_index : (string, net array) Hashtbl.t;
      (** the input buses by name, newest wins: {!input_bus} in O(1) *)
  output_index : (string, net array) Hashtbl.t;  (** same, outputs *)
  mutable name : string;
}

let const0 : net = 0
let const1 : net = 1

let create ?(name = "top") () =
  let tag_table = Vec.create ~capacity:16 Plain in
  let tag_ids = Hashtbl.create 16 in
  ignore (Vec.push tag_table Plain);
  Hashtbl.add tag_ids Plain 0;
  {
    n_nets = 2;
    count = 0;
    kind_col = Bytes.create 64;
    drive_col = Bytes.create 64;
    tag_col = Array.make 64 0;
    pin_start = Array.make 65 0;
    pins = Array.make 256 0;
    tag_table;
    tag_ids;
    last_tag = Plain;
    last_tag_id = 0;
    rev_inputs = [];
    rev_outputs = [];
    input_index = Hashtbl.create 16;
    output_index = Hashtbl.create 16;
    name;
  }

(** [new_net t] allocates a fresh net. *)
let new_net t =
  let n = t.n_nets in
  t.n_nets <- n + 1;
  n

(** [new_bus t width] allocates [width] fresh nets, LSB first. *)
let new_bus t width = Array.init width (fun _ -> new_net t)

let intern t tag =
  match tag with
  | Weight_bit { row; col; copy }
    when packable row && packable col && packable copy ->
      pack_weight row col copy
  | _ when tag == t.last_tag -> t.last_tag_id
  | _ ->
      let id =
        match Hashtbl.find_opt t.tag_ids tag with
        | Some id -> id
        | None ->
            let id = Vec.push t.tag_table tag in
            Hashtbl.add t.tag_ids tag id;
            id
      in
      t.last_tag <- tag;
      t.last_tag_id <- id;
      id

(* The first [n] bytes of [b] in a fresh buffer of [len]. *)
let resize_bytes b n len =
  let b' = Bytes.create len in
  Bytes.blit b 0 b' 0 n;
  b'

(* The first [n] entries of [a] in a fresh array of [len], copied by a
   typed loop, not [Array.blit]/[Array.sub]: those do not know the
   elements are immediate and run the write barrier on every element of
   a major-heap destination, which makes the copy about 1.5x slower
   (DESIGN.md, "Netlist construction"). *)
let resize_ints (a : int array) n len =
  let a' = Array.make len 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set a' k (Array.unsafe_get a k)
  done;
  a'

(* Resize the instance columns to hold [cap] instances and the pin
   column to hold [pin_cap] pins, keeping the live entries. *)
let resize t ~cap ~pin_cap =
  let n = t.count in
  if cap <> Bytes.length t.kind_col then begin
    t.kind_col <- resize_bytes t.kind_col n cap;
    t.drive_col <- resize_bytes t.drive_col n cap;
    t.tag_col <- resize_ints t.tag_col n cap;
    t.pin_start <- resize_ints t.pin_start (n + 1) (cap + 1)
  end;
  if pin_cap <> Array.length t.pins then
    t.pins <- resize_ints t.pins t.pin_start.(n) pin_cap

(* Room for [insts] more instances with [pins] pins between them,
   doubling the columns that are short. *)
let[@inline] room t ~insts ~pins =
  let cap = Bytes.length t.kind_col and pin_cap = Array.length t.pins in
  let need = t.count + insts and pin_need = t.pin_start.(t.count) + pins in
  if need > cap || pin_need > pin_cap then
    resize t
      ~cap:(if need > cap then max need (max 64 (2 * cap)) else cap)
      ~pin_cap:
        (if pin_need > pin_cap then max pin_need (max 256 (2 * pin_cap))
         else pin_cap)

(** [reserve t ~insts ~pins] sizes the columns to hold exactly [insts]
    more instances with [pins] pins between them, when they are short of
    that. A builder that knows its totals reserves once: adding exactly
    that much then never regrows a column, and {!freeze} shares the
    columns without trimming them. *)
let reserve t ~insts ~pins =
  let cap = Bytes.length t.kind_col and pin_cap = Array.length t.pins in
  let need = t.count + insts and pin_need = t.pin_start.(t.count) + pins in
  if need > cap || pin_need > pin_cap then
    resize t ~cap:(max need cap) ~pin_cap:(max pin_need pin_cap)

(** [add t kind ~ins ~outs] appends an instance and returns its id. Raises
    [Invalid_argument] when [ins] or [outs] does not match [kind]'s
    arity. *)
let add ?(tag = Plain) ?(drive = Cell.X1) t kind ~(ins : net array)
    ~(outs : net array) =
  let i = t.count in
  let n_in = Array.length ins and n_out = Array.length outs in
  if n_in <> Cell.n_inputs kind || n_out <> Cell.n_outputs kind then
    invalid_arg
      (Printf.sprintf
         "Ir.add: instance %d (%s) takes %d inputs and %d outputs, got %d \
          and %d"
         i (Cell.kind_to_string kind) (Cell.n_inputs kind)
         (Cell.n_outputs kind) n_in n_out);
  room t ~insts:1 ~pins:(n_in + n_out);
  Bytes.unsafe_set t.kind_col i (Char.unsafe_chr (Cell.kind_index kind));
  Bytes.unsafe_set t.drive_col i (Char.unsafe_chr (Cell.drive_index drive));
  t.tag_col.(i) <- intern t tag;
  let pins = t.pins and base = t.pin_start.(i) in
  for p = 0 to n_in - 1 do
    pins.(base + p) <- ins.(p)
  done;
  for o = 0 to n_out - 1 do
    pins.(base + n_in + o) <- outs.(o)
  done;
  t.pin_start.(i + 1) <- base + n_in + n_out;
  t.count <- i + 1;
  i

(** [add_input t name bus] registers a named primary input bus. O(1): a
    macro declares one bus per row. A repeated name shadows the earlier
    bus in {!input_bus}; both stay in {!inputs}. *)
let add_input t name bus =
  t.rev_inputs <- (name, bus) :: t.rev_inputs;
  Hashtbl.replace t.input_index name bus

(** [add_output t name bus] registers a named primary output bus. *)
let add_output t name bus =
  t.rev_outputs <- (name, bus) :: t.rev_outputs;
  Hashtbl.replace t.output_index name bus

(** [inputs t] — the named input buses in declaration order (the order
    ports are emitted in, e.g. by {!Verilog}). *)
let inputs t = List.rev t.rev_inputs

(** [outputs t] — the named output buses in declaration order. *)
let outputs t = List.rev t.rev_outputs

let find_bus index name =
  match Hashtbl.find_opt index name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir: no bus named %s" name)

(** [input_bus t name] — the input bus last added as [name], in O(1);
    raises [Invalid_argument] when there is none. *)
let input_bus t = find_bus t.input_index

let output_bus t = find_bus t.output_index

(** A repeated block, built once and copied wherever it repeats. The
    block is built by the ordinary builders into a scratch netlist of its
    own, on one placeholder net per input position; {!stamp} appends a
    copy of its instances to a netlist, wiring input position [k] to the
    [k]th given net and allocating the copy's fresh nets in the order the
    block allocated its own. A stamped block is therefore identical,
    instance for instance and net for net, to the same block built in
    place on the same inputs — provided no input is a constant net:
    builders fold [Ir.const0] operands away, which a block built on
    placeholders did not, so {!stamp} rejects constant inputs. Inputs map
    by position, never by net identity, so one net may feed several
    positions. *)
type template = {
  body : t;  (** nets [2 .. 1 + n_inputs] are the input placeholders *)
  n_inputs : int;
  outputs : net array;  (** the block's outputs, as [body]'s nets *)
}

(** [template ~inputs f] builds the block [f body ins] on [inputs]
    placeholder nets [ins]; [f] returns the block's output nets and a
    value of its own, returned beside the template. Raises
    [Invalid_argument] when the block declares a named bus or holds a
    [Weight_bit] instance: a weight address is not relative to the
    inputs, so copies would share it. *)
let template ~inputs f =
  let body = create ~name:"template" () in
  let ins = new_bus body inputs in
  let outputs, x = f body ins in
  if body.rev_inputs <> [] || body.rev_outputs <> [] then
    invalid_arg "Ir.template: a block declares no named bus";
  let no_weight () = invalid_arg "Ir.template: a block holds no weight bit" in
  for i = 0 to body.count - 1 do
    if body.tag_col.(i) < 0 then no_weight ()
  done;
  Vec.iter (function Weight_bit _ -> no_weight () | _ -> ()) body.tag_table;
  ({ body; n_inputs = inputs; outputs }, x)

(** [template_insts tm] / [template_pins tm] — the instances and pins one
    {!stamp} of [tm] adds. *)
let template_insts tm = tm.body.count

let template_pins tm = tm.body.pin_start.(tm.body.count)

(** [stamp t tm ins] appends a copy of [tm] wired to [ins] and returns the
    copy's outputs. Raises [Invalid_argument] when [ins] does not have
    one net per input position or holds a constant net. *)
let stamp t tm (ins : net array) =
  let n_in = tm.n_inputs in
  if Array.length ins <> n_in then
    invalid_arg
      (Printf.sprintf "Ir.stamp: the block takes %d inputs, got %d" n_in
         (Array.length ins));
  for k = 0 to n_in - 1 do
    if ins.(k) = const0 || ins.(k) = const1 then
      invalid_arg (Printf.sprintf "Ir.stamp: input %d is a constant net" k)
  done;
  let b = tm.body in
  (* body net [v >= first] is the copy's net [v + shift] *)
  let first = 2 + n_in in
  let shift = t.n_nets - first in
  t.n_nets <- t.n_nets + (b.n_nets - first);
  let n = b.count and n_pins = b.pin_start.(b.count) in
  room t ~insts:n ~pins:n_pins;
  (* interning the block's tags in its own first-use order gives them the
     ids a build in place would *)
  let codes = Array.make (Vec.length b.tag_table) 0 in
  Vec.iteri (fun c tag -> codes.(c) <- intern t tag) b.tag_table;
  let i0 = t.count in
  let p0 = t.pin_start.(i0) in
  Bytes.blit b.kind_col 0 t.kind_col i0 n;
  Bytes.blit b.drive_col 0 t.drive_col i0 n;
  let tag_col = t.tag_col and pin_start = t.pin_start and pins = t.pins in
  for i = 0 to n - 1 do
    tag_col.(i0 + i) <- codes.(b.tag_col.(i));
    pin_start.(i0 + i + 1) <- p0 + b.pin_start.(i + 1)
  done;
  let map v = if v >= first then v + shift else if v >= 2 then ins.(v - 2) else v in
  let body_pins = b.pins in
  for q = 0 to n_pins - 1 do
    pins.(p0 + q) <- map body_pins.(q)
  done;
  t.count <- i0 + n;
  Array.map map tm.outputs

(** A frozen, validated netlist with derived connectivity. The instance
    columns are {!t}'s, trimmed to length and shared: a design is a fixed
    number of flat arrays whatever its size. Read instances through the
    accessors below, or loop over the columns directly in a kernel. *)
type design = {
  src : t;
  kinds : Bytes.t;  (** per instance: {!Cell.kind_index} of its kind *)
  drives : Bytes.t;
      (** per instance: {!Cell.drive_index} of its drive. Mutable: only
          the sizing pass ({!Sizing}) writes it *)
  tags : int array;  (** per instance: tag code (see {!tag}) *)
  tag_table : tag array;  (** interned tags, indexed by non-negative codes *)
  pin_start : int array;
      (** length [n_insts + 1]: instance [i]'s pins are
          [pins.(pin_start.(i)) .. pins.(pin_start.(i + 1) - 1)], its
          {!n_ins} inputs first, then its outputs *)
  pins : int array;
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

(** One {!Cell.drive_index} byte per instance: a copy of a design's drive
    column, e.g. {!Sizing.snapshot}. *)
type drive_snapshot = Bytes.t

exception Multiple_drivers of net
exception Combinational_cycle of int

(** Per {!Cell.kind_index}: the kind's input count, which splits an
    instance's pins into inputs and outputs. *)
let n_ins_by_kind = Array.map Cell.n_inputs Cell.kinds_by_index

(* Per {!Cell.kind_index}: 0 combinational, 1 sequential, 2 storage. *)
let class_by_kind =
  Array.map
    (fun k ->
      if Cell.is_sequential k then 1 else if Cell.is_storage k then 2 else 0)
    Cell.kinds_by_index

(** [n_insts d] is the number of instances. *)
let n_insts d = Bytes.length d.kinds

(** [kind d i] is instance [i]'s cell kind. *)
let kind d i = Cell.kinds_by_index.(Char.code (Bytes.get d.kinds i))

(** [drive d i] is instance [i]'s current drive strength. *)
let drive d i = Cell.drive_of_index (Char.code (Bytes.get d.drives i))

(** [set_drive d i drive] resizes instance [i]. *)
let set_drive d i drive =
  Bytes.set d.drives i (Char.unsafe_chr (Cell.drive_index drive))

(** [params d lib i] is instance [i]'s library model at its current
    drive. *)
let params d (lib : Library.t) i =
  lib.Library.table.((Char.code (Bytes.get d.kinds i) * Cell.n_drives)
                     + Char.code (Bytes.get d.drives i))

(** [tag d i] is the tag instance [i] was added with (a fresh block for a
    [Weight_bit]: cold paths and tests only). *)
let tag d i =
  let v = d.tags.(i) in
  if v >= 0 then d.tag_table.(v)
  else
    Weight_bit
      { row = packed_row v; col = packed_col v; copy = packed_copy v }

(** [tag_key d i] names instance [i]'s tag up to its weight address: every
    [Weight_bit] shares one key, and instances with equal keys have equal
    {!label}s. *)
let tag_key d i =
  let v = d.tags.(i) in
  if v >= 0 then v else -1

(** [label d i] is {!tag_label} of instance [i]'s tag, without building
    the tag. *)
let label d i =
  let v = d.tags.(i) in
  if v >= 0 then tag_label d.tag_table.(v) else "memory_cell"

(* The weight address a tag code [v] carries, decoded against its
   [tag_table]: {!is_weight} and its readers below, and {!freeze}. *)
let code_is_weight tag_table v =
  v < 0
  ||
  match tag_table.(v) with
  | Weight_bit _ -> true
  | Plain | Pipeline_reg _ | Subcircuit _ -> false

let code_row tag_table v =
  if v < 0 then packed_row v
  else match tag_table.(v) with Weight_bit w -> w.row | _ -> -1

let code_col tag_table v =
  if v < 0 then packed_col v
  else match tag_table.(v) with Weight_bit w -> w.col | _ -> -1

let code_copy tag_table v =
  if v < 0 then packed_copy v
  else match tag_table.(v) with Weight_bit w -> w.copy | _ -> -1

(** [is_weight d i] holds when instance [i] is a [Weight_bit]; then
    [weight_row], [weight_col] and [weight_copy] read its address
    (they are [-1] on any other instance). *)
let is_weight d i = code_is_weight d.tag_table d.tags.(i)

let weight_row d i = code_row d.tag_table d.tags.(i)
let weight_col d i = code_col d.tag_table d.tags.(i)
let weight_copy d i = code_copy d.tag_table d.tags.(i)

(** [n_ins d i] / [n_outs d i] are instance [i]'s input and output
    counts. *)
let n_ins d i = n_ins_by_kind.(Char.code (Bytes.get d.kinds i))

let n_outs d i = d.pin_start.(i + 1) - d.pin_start.(i) - n_ins d i

(** [in_pin d i p] is the net on input pin [p] of instance [i]. *)
let in_pin d i p =
  if p < 0 || p >= n_ins d i then invalid_arg "Ir.in_pin: no such pin";
  d.pins.(d.pin_start.(i) + p)

(** [out_pin d i o] is the net on output pin [o] of instance [i]. *)
let out_pin d i o =
  if o < 0 || o >= n_outs d i then invalid_arg "Ir.out_pin: no such pin";
  d.pins.(d.pin_start.(i) + n_ins d i + o)

(** [ins d i] / [outs d i] copy instance [i]'s input / output nets into a
    fresh array. *)
let ins d i = Array.sub d.pins d.pin_start.(i) (n_ins d i)

let outs d i = Array.sub d.pins (d.pin_start.(i) + n_ins d i) (n_outs d i)

(* [n_ins d i] on a bare kind column. *)
let[@inline] n_ins_at kinds i =
  n_ins_by_kind.(Char.code (Bytes.unsafe_get kinds i))

(* Raise for pin [q] of instance [i], whose net [net] is not one of the
   [n_nets] nets. *)
let bad_net kinds pin_start i q net n_nets =
  let k = Char.code (Bytes.get kinds i) in
  let p = q - pin_start.(i) and n_in = n_ins_by_kind.(k) in
  invalid_arg
    (Printf.sprintf "Ir.freeze: instance %d (%s) %s pin %d is on net %d, \
                     outside 0..%d (n_nets = %d)"
       i
       (Cell.kind_to_string Cell.kinds_by_index.(k))
       (if p < n_in then "input" else "output")
       (if p < n_in then p else p - n_in)
       net (n_nets - 1) n_nets)

(* Compressed sparse row fanout: count each net's input-pin incidences,
   prefix-sum the counts into segment ends, then fill every segment from
   its end while walking instances and pins in ascending order — which
   lists each net's consumers in descending (instance, pin) order and
   leaves each net's entry at its segment's start. *)
let build_fanout kinds pin_start pins n_nets =
  let n_insts = Bytes.length kinds in
  let start = Array.make (n_nets + 1) 0 in
  for i = 0 to n_insts - 1 do
    let s = pin_start.(i) in
    for q = s to s + n_ins_at kinds i - 1 do
      let net = pins.(q) in
      if net < 0 || net >= n_nets then bad_net kinds pin_start i q net n_nets;
      start.(net) <- start.(net) + 1
    done
  done;
  for net = 1 to n_nets - 1 do
    start.(net) <- start.(net) + start.(net - 1)
  done;
  if n_nets > 0 then start.(n_nets) <- start.(n_nets - 1);
  let fanout = Array.make start.(n_nets) 0 in
  for i = 0 to n_insts - 1 do
    let s = pin_start.(i) in
    for q = s to s + n_ins_at kinds i - 1 do
      let net = pins.(q) in
      start.(net) <- start.(net) - 1;
      fanout.(start.(net)) <- i
    done
  done;
  (start, fanout)

(* Trim [t]'s columns to their live length, in place, so a design can
   share them; a later {!add} regrows them by copying. A netlist built
   to its {!reserve}d size is already trimmed. *)
let trim t = resize t ~cap:t.count ~pin_cap:t.pin_start.(t.count)

(** [freeze t] validates and derives the evaluation views. Raises
    {!Multiple_drivers} or {!Combinational_cycle} on malformed input, and
    [Invalid_argument] on a pin whose net is outside [0 .. n_nets - 1]
    or on a [Weight_bit] with a negative coordinate. The design shares
    [t]'s instance columns, drives included. *)
let freeze (t : t) : design =
  trim t;
  let kinds = t.kind_col and pin_start = t.pin_start and pins = t.pins in
  let n_insts = t.count in
  let n_nets = t.n_nets in
  let driver_inst = Array.make n_nets (-1) in
  let driver_pin = Array.make n_nets (-1) in
  for i = 0 to n_insts - 1 do
    let s = pin_start.(i) + n_ins_at kinds i in
    for q = s to pin_start.(i + 1) - 1 do
      let net = pins.(q) in
      if net < 0 || net >= n_nets then bad_net kinds pin_start i q net n_nets;
      if driver_inst.(net) >= 0 then raise (Multiple_drivers net);
      driver_inst.(net) <- i;
      driver_pin.(net) <- q - s
    done
  done;
  let fanout_start, fanout = build_fanout kinds pin_start pins n_nets in
  (* Topological order over combinational instances only: sequential and
     storage outputs are sources, so they never appear in the dependency
     graph as producers. [comb] is the combinational mask; [queue] is the
     Kahn FIFO, and since every combinational instance enters it at most
     once, its popped prefix is the evaluation order itself. *)
  let comb = Bytes.make n_insts '\000' in
  let n_comb = ref 0 and n_seq = ref 0 and n_storage = ref 0 in
  for i = 0 to n_insts - 1 do
    match class_by_kind.(Char.code (Bytes.unsafe_get kinds i)) with
    | 0 ->
        Bytes.unsafe_set comb i '\001';
        incr n_comb
    | 1 -> incr n_seq
    | _ -> incr n_storage
  done;
  let is_comb i = Bytes.unsafe_get comb i = '\001' in
  let indeg = Array.make n_insts 0 in
  for i = 0 to n_insts - 1 do
    if is_comb i then begin
      let s = pin_start.(i) in
      for q = s to s + n_ins_at kinds i - 1 do
        let j = driver_inst.(pins.(q)) in
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
    let i = queue.(!head) in
    incr head;
    let s = pin_start.(i) + n_ins_at kinds i in
    for q = s to pin_start.(i + 1) - 1 do
      let net = pins.(q) in
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
  let tags = t.tag_col and tag_table = Vec.to_array t.tag_table in
  let seq = Array.make !n_seq 0 and storage = Array.make !n_storage 0 in
  let rows = ref 0 and cols = ref 0 and copies = ref 0 in
  n_seq := 0;
  n_storage := 0;
  for i = 0 to n_insts - 1 do
    match class_by_kind.(Char.code (Bytes.unsafe_get kinds i)) with
    | 1 ->
        seq.(!n_seq) <- i;
        incr n_seq
    | 2 ->
        storage.(!n_storage) <- i;
        incr n_storage;
        let v = tags.(i) in
        if code_is_weight tag_table v then begin
          let row = code_row tag_table v and col = code_col tag_table v
          and copy = code_copy tag_table v in
          if row < 0 || col < 0 || copy < 0 then
            invalid_arg
              (Printf.sprintf "Ir.freeze: negative weight address (%d,%d,%d)"
                 row col copy);
          rows := max !rows (row + 1);
          cols := max !cols (col + 1);
          copies := max !copies (copy + 1)
        end
    | _ -> ()
  done;
  let rows = !rows and cols = !cols and copies = !copies in
  let weight_index = Array.make (rows * cols * copies) (-1) in
  Array.iter
    (fun i ->
      let v = tags.(i) in
      if code_is_weight tag_table v then
        weight_index.((((code_row tag_table v * cols) + code_col tag_table v)
                       * copies)
                      + code_copy tag_table v) <- i)
    storage;
  {
    src = t;
    kinds;
    drives = t.drive_col;
    tags;
    tag_table;
    pin_start;
    pins;
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

(** [fanout_count d net] is the number of input pins [net] drives. *)
let fanout_count d net = d.fanout_start.(net + 1) - d.fanout_start.(net)

(** [fanout_load d lib ~wire_cap net] is the capacitive load on [net]: the
    input-pin capacitance of every consumer plus optional routed-wire
    capacitance from the layout. *)
let fanout_load (d : design) (lib : Library.t) ?(wire_cap = fun _ -> 0.0) net =
  let pins = ref 0.0 in
  for k = d.fanout_start.(net) to d.fanout_start.(net + 1) - 1 do
    pins := !pins +. (params d lib d.fanout.(k)).input_cap_ff
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
  let kinds = d.kinds and drives = d.drives in
  let pin_start = d.pin_start and pins = d.pins in
  let table = lib.Library.table and n_drives = Cell.n_drives in
  for i = 0 to Bytes.length kinds - 1 do
    let k = Char.code (Bytes.unsafe_get kinds i) in
    let cap =
      table.((k * n_drives) + Char.code (Bytes.unsafe_get drives i))
        .Library.input_cap_ff
    in
    let s = pin_start.(i) in
    for q = s to s + n_ins_by_kind.(k) - 1 do
      let net = pins.(q) in
      loads.(net) <- loads.(net) +. cap
    done
  done;
  for net = 0 to d.n_nets - 1 do
    loads.(net) <- loads.(net) +. wire_cap net
  done;
  loads
