(** Cell kinds of the synthetic 40 nm library.

    Three families, mirroring the paper's subcircuit library (Fig. 3):

    - standard combinational/sequential cells that any digital flow has;
    - arithmetic cells (half/full adders, 4-2 compressors) that the bit-wise
      carry-save adder trees are built from;
    - DCIM custom cells (SRAM storage bits and the fused multiplier /
      multiplexer variants) that the paper characterizes through a custom
      cell flow and injects into the digital flow as standard cells. *)

type sram_kind =
  | S6t  (** classic 6T storage cell + read port *)
  | S8t  (** 8T D-latch cell, robust read and write *)
  | S12t  (** 12T OAI-gate-based cell, design-feasibility oriented *)

type mul_kind =
  | Tg_nor  (** 2T transmission-gate select + NOR multiply (common) *)
  | Pass_1t  (** 1T passing-gate mux; area-efficient, slow, leaky *)
  | Oai22_fused  (** fused multiplier+mux (OAI22); only scales to MCR<=2 *)

type kind =
  | Inv
  | Buf
  | Nand2
  | Nor2
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2  (** inputs [a; b; sel], output [sel ? b : a] *)
  | Aoi22  (** inputs [a; b; c; d], output [!(a&b | c&d)] *)
  | Oai22  (** inputs [a; b; c; d], output [!((a|b) & (c|d))] *)
  | Ha  (** inputs [a; b], outputs [sum; carry] *)
  | Fa  (** inputs [a; b; cin], outputs [sum; carry] *)
  | Comp42  (** inputs [a; b; c; d; cin], outputs [sum; carry; cout] *)
  | Dff  (** input [d], output [q]; clocked *)
  | Dff_en  (** inputs [d; en], output [q]; clocked, holds when !en *)
  | Sram of sram_kind  (** no logic input; output is the stored bit *)
  | Mul of mul_kind
      (** [Tg_nor]/[Pass_1t]: inputs [x; w] output [x & w].
          [Oai22_fused]: inputs [x; w0; w1; sel] output [x & (sel?w1:w0)]. *)
  | Tgmux2  (** transmission-gate mux: inputs [a; b; sel] *)
  | Ptmux2  (** pass-transistor mux: inputs [a; b; sel]; cheap but weak *)

(** Drive strength of a cell instance. *)
type drive = X1 | X2 | X4

let drive_to_string = function X1 -> "X1" | X2 -> "X2" | X4 -> "X4"

let kind_to_string = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand2 -> "NAND2"
  | Nor2 -> "NOR2"
  | And2 -> "AND2"
  | Or2 -> "OR2"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Mux2 -> "MUX2"
  | Aoi22 -> "AOI22"
  | Oai22 -> "OAI22"
  | Ha -> "HA"
  | Fa -> "FA"
  | Comp42 -> "COMP42"
  | Dff -> "DFF"
  | Dff_en -> "DFFE"
  | Sram S6t -> "SRAM6T"
  | Sram S8t -> "SRAM8T"
  | Sram S12t -> "SRAM12T"
  | Mul Tg_nor -> "MUL_TGNOR"
  | Mul Pass_1t -> "MUL_PASS1T"
  | Mul Oai22_fused -> "MUL_OAI22F"
  | Tgmux2 -> "TGMUX2"
  | Ptmux2 -> "PTMUX2"

let all_kinds =
  [
    Inv; Buf; Nand2; Nor2; And2; Or2; Xor2; Xnor2; Mux2; Aoi22; Oai22; Ha;
    Fa; Comp42; Dff; Dff_en; Sram S6t; Sram S8t; Sram S12t; Mul Tg_nor;
    Mul Pass_1t; Mul Oai22_fused; Tgmux2; Ptmux2;
  ]

(** [kind_index k] is [k]'s position in {!all_kinds}: a dense id in
    [0, n_kinds) that per-kind tables index by. *)
let kind_index = function
  | Inv -> 0
  | Buf -> 1
  | Nand2 -> 2
  | Nor2 -> 3
  | And2 -> 4
  | Or2 -> 5
  | Xor2 -> 6
  | Xnor2 -> 7
  | Mux2 -> 8
  | Aoi22 -> 9
  | Oai22 -> 10
  | Ha -> 11
  | Fa -> 12
  | Comp42 -> 13
  | Dff -> 14
  | Dff_en -> 15
  | Sram S6t -> 16
  | Sram S8t -> 17
  | Sram S12t -> 18
  | Mul Tg_nor -> 19
  | Mul Pass_1t -> 20
  | Mul Oai22_fused -> 21
  | Tgmux2 -> 22
  | Ptmux2 -> 23

let n_kinds = 24

(** {!all_kinds} as an array: [kinds_by_index.(kind_index k) = k]. *)
let kinds_by_index = Array.of_list all_kinds

let all_drives = [ X1; X2; X4 ]

(** [drive_index d] is [d]'s position in {!all_drives}. *)
let drive_index = function X1 -> 0 | X2 -> 1 | X4 -> 2

let n_drives = 3

(** [drive_of_index i] inverts {!drive_index}. *)
let drive_of_index = function
  | 0 -> X1
  | 1 -> X2
  | 2 -> X4
  | i -> invalid_arg (Printf.sprintf "Cell.drive_of_index: %d" i)

(** [n_inputs k] is the number of logic input pins (clock excluded). *)
let n_inputs = function
  | Inv | Buf -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 | Ha -> 2
  | Mux2 | Fa | Tgmux2 | Ptmux2 -> 3
  | Aoi22 | Oai22 -> 4
  | Comp42 -> 5
  | Dff -> 1
  | Dff_en -> 2
  | Sram _ -> 0
  | Mul Tg_nor | Mul Pass_1t -> 2
  | Mul Oai22_fused -> 4

(** [n_outputs k] is the number of output pins. *)
let n_outputs = function
  | Ha | Fa -> 2
  | Comp42 -> 3
  | Inv | Buf | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 | Mux2 | Aoi22
  | Oai22 | Dff | Dff_en | Sram _ | Mul _ | Tgmux2 | Ptmux2 ->
      1

(** [is_sequential k] holds for clocked state elements. SRAM cells are
    state too, but written through the BL driver rather than the clock. *)
let is_sequential = function
  | Dff | Dff_en -> true
  | Inv | Buf | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 | Mux2 | Aoi22
  | Oai22 | Ha | Fa | Comp42 | Sram _ | Mul _ | Tgmux2 | Ptmux2 ->
      false

let is_storage = function Sram _ -> true | _ -> false

let maj3 a b c = (a && b) || (a && c) || (b && c)

(** Widest input/output arity over all kinds — the scratch-buffer sizes a
    zero-allocation simulator needs. *)
let max_inputs = 5

let max_outputs = 3

(** [eval_into k ins outs] computes the combinational function of kind [k]
    from [ins.(0 .. n_inputs k - 1)] into [outs.(0 .. n_outputs k - 1)].
    Both buffers may be longer than the cell's arity, so one preallocated
    pair ({!max_inputs} / {!max_outputs} wide) serves every instance: this
    is the allocation-free hot path the cycle simulator runs per instance
    per cycle. *)
let eval_into k (ins : bool array) (outs : bool array) : unit =
  match k with
  | Inv -> outs.(0) <- not ins.(0)
  | Buf -> outs.(0) <- ins.(0)
  | Nand2 -> outs.(0) <- not (ins.(0) && ins.(1))
  | Nor2 -> outs.(0) <- not (ins.(0) || ins.(1))
  | And2 -> outs.(0) <- ins.(0) && ins.(1)
  | Or2 -> outs.(0) <- ins.(0) || ins.(1)
  | Xor2 -> outs.(0) <- ins.(0) <> ins.(1)
  | Xnor2 -> outs.(0) <- ins.(0) = ins.(1)
  | Mux2 | Tgmux2 | Ptmux2 ->
      outs.(0) <- (if ins.(2) then ins.(1) else ins.(0))
  | Aoi22 -> outs.(0) <- not ((ins.(0) && ins.(1)) || (ins.(2) && ins.(3)))
  | Oai22 -> outs.(0) <- not ((ins.(0) || ins.(1)) && (ins.(2) || ins.(3)))
  | Ha ->
      outs.(0) <- ins.(0) <> ins.(1);
      outs.(1) <- ins.(0) && ins.(1)
  | Fa ->
      outs.(0) <- ins.(0) <> ins.(1) <> ins.(2);
      outs.(1) <- maj3 ins.(0) ins.(1) ins.(2)
  | Comp42 ->
      let s1 = ins.(0) <> ins.(1) <> ins.(2)
      and co = maj3 ins.(0) ins.(1) ins.(2) in
      outs.(0) <- s1 <> ins.(3) <> ins.(4);
      outs.(1) <- maj3 s1 ins.(3) ins.(4);
      outs.(2) <- co
  | Mul (Tg_nor | Pass_1t) -> outs.(0) <- ins.(0) && ins.(1)
  | Mul Oai22_fused ->
      outs.(0) <- ins.(0) && (if ins.(3) then ins.(2) else ins.(1))
  | Dff | Dff_en | Sram _ ->
      invalid_arg "Cell.eval: sequential/storage cell"

(** [eval_word_into k ins outs] is {!eval_into} on bit-sliced words: every
    input and output [int] carries one simulation lane per bit, and the
    cell function is applied to all lanes at once with bitwise ops. The
    XOR/majority identities make every arithmetic cell a handful of
    word ops: [maj3 a b c = (a&b) | (a&c) | (b&c)], a mux is
    [(sel&b) | (~sel&a)]. Complemented outputs may carry set bits above
    the caller's active lanes; the packed simulator masks on commit. *)
let eval_word_into k (ins : int array) (outs : int array) : unit =
  match k with
  | Inv -> outs.(0) <- lnot ins.(0)
  | Buf -> outs.(0) <- ins.(0)
  | Nand2 -> outs.(0) <- lnot (ins.(0) land ins.(1))
  | Nor2 -> outs.(0) <- lnot (ins.(0) lor ins.(1))
  | And2 -> outs.(0) <- ins.(0) land ins.(1)
  | Or2 -> outs.(0) <- ins.(0) lor ins.(1)
  | Xor2 -> outs.(0) <- ins.(0) lxor ins.(1)
  | Xnor2 -> outs.(0) <- lnot (ins.(0) lxor ins.(1))
  | Mux2 | Tgmux2 | Ptmux2 ->
      let sel = ins.(2) in
      outs.(0) <- (sel land ins.(1)) lor (lnot sel land ins.(0))
  | Aoi22 -> outs.(0) <- lnot ((ins.(0) land ins.(1)) lor (ins.(2) land ins.(3)))
  | Oai22 -> outs.(0) <- lnot ((ins.(0) lor ins.(1)) land (ins.(2) lor ins.(3)))
  | Ha ->
      outs.(0) <- ins.(0) lxor ins.(1);
      outs.(1) <- ins.(0) land ins.(1)
  | Fa ->
      let a = ins.(0) and b = ins.(1) and c = ins.(2) in
      outs.(0) <- a lxor b lxor c;
      outs.(1) <- (a land b) lor (a land c) lor (b land c)
  | Comp42 ->
      let a = ins.(0) and b = ins.(1) and c = ins.(2) in
      let d = ins.(3) and cin = ins.(4) in
      let s1 = a lxor b lxor c in
      let co = (a land b) lor (a land c) lor (b land c) in
      outs.(0) <- s1 lxor d lxor cin;
      outs.(1) <- (s1 land d) lor (s1 land cin) lor (d land cin);
      outs.(2) <- co
  | Mul (Tg_nor | Pass_1t) -> outs.(0) <- ins.(0) land ins.(1)
  | Mul Oai22_fused ->
      let sel = ins.(3) in
      outs.(0) <- ins.(0) land ((sel land ins.(2)) lor (lnot sel land ins.(1)))
  | Dff | Dff_en | Sram _ ->
      invalid_arg "Cell.eval_word: sequential/storage cell"

(** [eval_word k ins] — allocating form of {!eval_word_into}, mirroring
    {!eval}. Hot loops use {!eval_word_into} with preallocated buffers. *)
let eval_word k (ins : int array) : int array =
  (match k with
  | Dff | Dff_en | Sram _ ->
      invalid_arg "Cell.eval_word: sequential/storage cell"
  | _ ->
      if Array.length ins <> n_inputs k then
        invalid_arg "Cell.eval_word: arity mismatch");
  let outs = Array.make (n_outputs k) 0 in
  eval_word_into k ins outs;
  outs

(** [eval k ins] computes the combinational function of kind [k]. For
    sequential and storage kinds this is the identity on the held state and
    must not be called by the simulator's combinational phase. Allocates
    the result; hot loops use {!eval_into} instead. *)
let eval k (ins : bool array) : bool array =
  (match k with
  | Dff | Dff_en | Sram _ -> invalid_arg "Cell.eval: sequential/storage cell"
  | _ ->
      if Array.length ins <> n_inputs k then
        invalid_arg "Cell.eval: arity mismatch");
  let outs = Array.make (n_outputs k) false in
  eval_into k ins outs;
  outs
