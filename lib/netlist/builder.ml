(** Bus-level construction combinators over the netlist IR.

    A {!ctx} couples the netlist under construction with the subcircuit tag
    that every emitted instance is labelled with, so PPA can later be broken
    down per paper subcircuit. Buses are [net array]s, LSB first; signed
    buses are two's complement. *)

type ctx = { ir : Ir.t; tag : Ir.tag }

(** [in_subcircuit ir name] opens a labelled construction context. *)
let in_subcircuit ir name = { ir; tag = Ir.Subcircuit name }

let ctx_plain ir = { ir; tag = Ir.Plain }

let add c kind ~ins ~outs = ignore (Ir.add ~tag:c.tag c.ir kind ~ins ~outs)

let fresh c = Ir.new_net c.ir
let fresh_bus c width = Ir.new_bus c.ir width

(* ------------------------------------------------------------------ *)
(* Single-bit gates                                                    *)
(* ------------------------------------------------------------------ *)

let gate1 c kind a =
  let o = fresh c in
  add c kind ~ins:[| a |] ~outs:[| o |];
  o

let gate2 c kind a b =
  let o = fresh c in
  add c kind ~ins:[| a; b |] ~outs:[| o |];
  o

let inv c a = gate1 c Cell.Inv a
let buf c a = gate1 c Cell.Buf a
let and2 c a b = gate2 c Cell.And2 a b
let or2 c a b = gate2 c Cell.Or2 a b
let xor2 c a b = gate2 c Cell.Xor2 a b
let xnor2 c a b = gate2 c Cell.Xnor2 a b

(** [mux2 c ~sel a b] is [sel ? b : a]. *)
let mux2 ?(kind = Cell.Mux2) c ~sel a b =
  let o = fresh c in
  add c kind ~ins:[| a; b; sel |] ~outs:[| o |];
  o

(** [ha c a b] returns [(sum, carry)]. *)
let ha c a b =
  let s = fresh c and co = fresh c in
  add c Cell.Ha ~ins:[| a; b |] ~outs:[| s; co |];
  (s, co)

(** [fa c a b cin] returns [(sum, carry)]. *)
let fa c a b cin =
  let s = fresh c and co = fresh c in
  add c Cell.Fa ~ins:[| a; b; cin |] ~outs:[| s; co |];
  (s, co)

(** [comp42 c a b d e cin] returns [(sum, carry, cout)]: a 4-2 compressor
    used as the paper's 5-3 carry-save adder. [sum] has weight 1, [carry]
    and [cout] weight 2. *)
let comp42 c a b d e cin =
  let s = fresh c and carry = fresh c and cout = fresh c in
  add c Cell.Comp42 ~ins:[| a; b; d; e; cin |] ~outs:[| s; carry; cout |];
  (s, carry, cout)

(** [dff c d] registers one bit. *)
let dff ?tag c d =
  let q = fresh c in
  let tag = match tag with Some t -> t | None -> c.tag in
  ignore (Ir.add ~tag c.ir Cell.Dff ~ins:[| d |] ~outs:[| q |]);
  q

(** [dff_en c ~en d] registers one bit, holding when [en] is low. *)
let dff_en ?tag c ~en d =
  let q = fresh c in
  let tag = match tag with Some t -> t | None -> c.tag in
  ignore (Ir.add ~tag c.ir Cell.Dff_en ~ins:[| d; en |] ~outs:[| q |]);
  q

(** [dff_en_into c ~en ~d ~q] registers into a pre-allocated output net —
    the way to close a feedback loop (allocate [q] first, derive [d] from
    it, then bind). *)
let dff_en_into ?tag c ~en ~d ~q =
  let tag = match tag with Some t -> t | None -> c.tag in
  ignore (Ir.add ~tag c.ir Cell.Dff_en ~ins:[| d; en |] ~outs:[| q |])

(** [buf_into c ~src ~dst] drives a pre-allocated net from another net
    through a buffer — used to connect late-built logic (e.g. the
    controller) to nets that earlier construction already consumed. *)
let buf_into c ~src ~dst =
  ignore (Ir.add ~tag:c.tag c.ir Cell.Buf ~ins:[| src |] ~outs:[| dst |])

(** [dff_into c ~d ~q] is {!dff_en_into} without an enable. *)
let dff_into ?tag c ~d ~q =
  let tag = match tag with Some t -> t | None -> c.tag in
  ignore (Ir.add ~tag c.ir Cell.Dff ~ins:[| d |] ~outs:[| q |])

(* ------------------------------------------------------------------ *)
(* Buses                                                               *)
(* ------------------------------------------------------------------ *)

(** [const_bus ~width v] encodes the non-negative constant [v] as constant
    nets. *)
let const_bus ~width v =
  Array.init width (fun i ->
      if (v lsr i) land 1 = 1 then Ir.const1 else Ir.const0)

(** [zero_extend bus width] pads with constant 0 up to [width]. *)
let zero_extend bus width =
  Array.init width (fun i -> if i < Array.length bus then bus.(i) else Ir.const0)

(** [sign_extend bus width] replicates the MSB up to [width]. *)
let sign_extend bus width =
  let n = Array.length bus in
  assert (n >= 1);
  Array.init width (fun i -> if i < n then bus.(i) else bus.(n - 1))

(** [shift_left bus k ~width] is a static shift: pure wiring, no cells. *)
let shift_left bus k ~width =
  Array.init width (fun i ->
      if i < k then Ir.const0
      else if i - k < Array.length bus then bus.(i - k)
      else Ir.const0)

let map_bus f bus = Array.map f bus

let inv_bus c bus = map_bus (inv c) bus

(** [and_bit c bus b] gates every wire of [bus] with bit [b]. *)
let and_bit c bus b = map_bus (fun a -> and2 c a b) bus

(** [mux_bus c ~sel a b] selects [b] when [sel] else [a]; widths must
    match. *)
let mux_bus ?kind c ~sel a b =
  assert (Array.length a = Array.length b);
  Array.init (Array.length a) (fun i -> mux2 ?kind c ~sel a.(i) b.(i))

(** [reg_bus c bus] registers a whole bus. *)
let reg_bus ?tag c bus = map_bus (dff ?tag c) bus

(** [reg_bus_en c ~en bus] registers a bus with a shared enable. *)
let reg_bus_en ?tag c ~en bus = map_bus (dff_en ?tag c ~en) bus

(** [rca_add c a b cin] is a ripple-carry adder; returns the [max wa wb]-bit
    sum and the final carry. Operands are zero-extended to a common width —
    callers wanting signed semantics must sign-extend first. With [fold]
    (the default) constant-zero operand bits degrade full adders into half
    adders or wires, the way synthesis constant-propagates; [~fold:false]
    instantiates one full adder per bit unconditionally, modelling the
    conventional manually-instantiated signed adder rows the paper's RCA
    baseline uses. *)
let rca_add ?(fold = true) c a b cin =
  let w = max (Array.length a) (Array.length b) in
  let a = zero_extend a w and b = zero_extend b w in
  let sum = Array.make w Ir.const0 in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, co =
      if not fold then fa c a.(i) b.(i) !carry
      else if a.(i) = Ir.const0 && !carry = Ir.const0 then (b.(i), Ir.const0)
      else if b.(i) = Ir.const0 && !carry = Ir.const0 then (a.(i), Ir.const0)
      else if a.(i) = Ir.const0 then ha c b.(i) !carry
      else if b.(i) = Ir.const0 then ha c a.(i) !carry
      else if !carry = Ir.const0 then ha c a.(i) b.(i)
      else fa c a.(i) b.(i) !carry
    in
    sum.(i) <- s;
    carry := co
  done;
  (sum, !carry)

(** [carry_select_add c a b cin ~block] — carry-select adder: [block]-bit
    ripple groups computed for both carry-in values, the real carry
    selecting between them. Delay is one block ripple plus a mux chain
    instead of a full-width ripple; cost is roughly double the adder
    area. Operands are zero-extended to a common width. *)
let carry_select_add c a b cin ~block =
  assert (block >= 2);
  let w = max (Array.length a) (Array.length b) in
  let a = zero_extend a w and b = zero_extend b w in
  let sum = Array.make w Ir.const0 in
  let carry = ref cin in
  let pos = ref 0 in
  while !pos < w do
    let n = min block (w - !pos) in
    let ab = Array.sub a !pos n and bb = Array.sub b !pos n in
    if !pos = 0 then begin
      (* first block sees the true carry directly *)
      let s, co = rca_add c ab bb !carry in
      Array.blit s 0 sum !pos n;
      carry := co
    end
    else begin
      let s0, c0 = rca_add c ab bb Ir.const0 in
      let s1, c1 = rca_add c ab bb Ir.const1 in
      let s = mux_bus c ~sel:!carry s0 s1 in
      Array.blit s 0 sum !pos n;
      carry := mux2 c ~sel:!carry c0 c1
    end;
    pos := !pos + n
  done;
  (sum, !carry)

(** Adder architecture selector for the wide bus adders. *)
type adder_arch = Rca | Csel of int  (** carry-select with block size *)

let arch_add c arch a b cin =
  match arch with
  | Rca -> rca_add c a b cin
  | Csel block -> carry_select_add c a b cin ~block

(** [add_signed c a b ~width] adds two signed buses at [width] bits,
    discarding overflow beyond [width]. *)
let add_signed ?(arch = Rca) c a b ~width =
  let a = sign_extend a width and b = sign_extend b width in
  let sum, _ = arch_add c arch a b Ir.const0 in
  sum

(** [addsub_signed c ~sub a b ~width] computes [a + b] when [sub] is low and
    [a - b] when high, via conditional invert + carry-in. *)
let addsub_signed c ~sub a b ~width =
  let a = sign_extend a width and b = sign_extend b width in
  let b' = Array.map (fun bit -> xor2 c bit sub) b in
  let sum, _ = rca_add c a b' sub in
  sum

(** [sub_signed c a b ~width] computes [a - b] with an inverter row and a
    carry-in — cheaper than negating [b] first (one ripple chain instead
    of two). *)
let sub_signed ?(arch = Rca) c a b ~width =
  let a = sign_extend a width and b = sign_extend b width in
  let b' = inv_bus c b in
  let sum, _ = arch_add c arch a b' Ir.const1 in
  sum

(** [neg_signed c a ~width] is two's-complement negation. *)
let neg_signed c a ~width =
  let a = sign_extend a width in
  let inv_a = inv_bus c a in
  let sum, _ = rca_add c inv_a (const_bus ~width 0) Ir.const1 in
  sum

(** [barrel_shift_right c bus amount] shifts [bus] right by the unsigned
    bus [amount] (log-depth mux stages), filling with zeros. *)
let barrel_shift_right ?kind c bus amount =
  let w = Array.length bus in
  let stage data k sel =
    Array.init w (fun i ->
        let shifted = if i + k < w then data.(i + k) else Ir.const0 in
        mux2 ?kind c ~sel data.(i) shifted)
  in
  let data = ref bus in
  Array.iteri (fun j sel -> data := stage !data (1 lsl j) sel) amount;
  !data

(** [greater_than c a b] compares unsigned buses of equal width, returning
    a net that is high iff [a > b]. Tree-structured (divide and conquer on
    [gt]/[eq] pairs), so the depth is logarithmic in the width — this
    comparator sits on the FP aligner's exponent-max tree where a ripple
    version would dominate the clock. *)
let greater_than c a b =
  assert (Array.length a = Array.length b);
  let rec compare lo hi =
    (* compares bits [lo..hi] (inclusive), returns (gt, eq) *)
    if lo = hi then
      (and2 c a.(lo) (inv c b.(lo)), xnor2 c a.(lo) b.(lo))
    else begin
      let mid = (lo + hi + 1) / 2 in
      let gt_hi, eq_hi = compare mid hi in
      let gt_lo, eq_lo = compare lo (mid - 1) in
      (or2 c gt_hi (and2 c eq_hi gt_lo), and2 c eq_hi eq_lo)
    end
  in
  let gt, _eq = compare 0 (Array.length a - 1) in
  gt

(** [equal_const c bus v] is high iff [bus] equals the constant [v]. *)
let equal_const c bus v =
  let bits =
    Array.to_list
      (Array.mapi
         (fun i b -> if (v lsr i) land 1 = 1 then b else inv c b)
         bus)
  in
  match bits with
  | [] -> Ir.const1
  | first :: rest -> List.fold_left (and2 c) first rest

(** [or_reduce c bus] is the OR of all wires. *)
let or_reduce c bus =
  match Array.to_list bus with
  | [] -> Ir.const0
  | first :: rest -> List.fold_left (or2 c) first rest
