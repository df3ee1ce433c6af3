(** Column adder trees: accumulate H one-bit products into a popcount.

    Three topologies, matching the paper's §II-B / §III-B analysis:

    - [Rca_tree]: the conventional baseline — a binary tree of ripple-carry
      adders of growing width. Logically simple, long critical path.
    - [Csa]: bit-wise carry-save reduction using 4-2 compressors, full
      adders and half adders, finished by one final RCA. Two knobs:
      [fa_ratio] replaces compressors with full adders in the *late*
      reduction stages (loose timing → more compressors for power/area;
      strict timing → more FAs for speed), and [reorder] sorts candidate
      bits by estimated arrival so fast carry outputs wait for slow sums —
      the paper's connection-reordering optimization.

    The generator also implements the searcher's structural throughput
    techniques: [split] (tt3: divide the H-input column into [split]
    sub-columns of H/split inputs, registered, merged by a pipelined adder)
    and [retime_final_rca] (tt2: move the output register in front of the
    final RCA stage so the RCA executes in the next pipeline stage). *)

type topology =
  | Rca_tree
  | Csa of { fa_ratio : float; reorder : bool }

let topology_name = function
  | Rca_tree -> "rca"
  | Csa { fa_ratio; reorder } ->
      Printf.sprintf "csa_fa%02.0f%s" (fa_ratio *. 100.0)
        (if reorder then "_reord" else "")

(** Result of building one column tree. [latency] counts pipeline registers
    inserted inside the tree (0, 1 or 2 cycles); [sum] is the popcount bus
    (unsigned, [ceil_log2 h + 1] bits). *)
type built = { sum : Ir.net array; latency : int }

(* A bit in flight during carry-save reduction: its net and an arrival
   estimate used by the reordering heuristic. *)
type flight = { net : Ir.net; at : float }

let est lib kind out =
  let p = Library.params lib kind Cell.X1 in
  p.intrinsic_ps.(out) +. (p.drive_res_ps_per_ff *. 4.0)

(* Earliest-arriving first, so late bits wait less; ties keep column
   order. *)
let by_arrival bits = List.stable_sort (fun a b -> Float.compare a.at b.at) bits

let worst_at chosen = List.fold_left (fun m b -> Float.max m b.at) 0.0 chosen

(** Carry-save reduction of [columns] (bit lists indexed by weight) down to
    at most two bits per weight; [use_fa stage] is the per-stage policy.
    Compressors are used in 4→2 mode (cin tied low), so carry and cout
    both move one weight up. Bits carried past the top weight are provably
    zero (the popcount fits in [out_w] bits) and are dropped. Returns the
    two final addend buses. *)
let reduce c lib ~reorder ~use_fa columns =
  let d_fa_s = est lib Cell.Fa 0
  and d_fa_c = est lib Cell.Fa 1
  and d_c42_s = est lib Cell.Comp42 0
  and d_c42_c = est lib Cell.Comp42 1
  and d_c42_co = est lib Cell.Comp42 2 in
  let n_weights = Array.length columns in
  let cols = Array.copy columns in
  let stage = ref 0 in
  while Array.exists (fun l -> List.length l > 2) cols do
    let next = Array.make n_weights [] in
    let fa_only = use_fa !stage in
    let emit w b = if w < n_weights then next.(w) <- b :: next.(w) in
    for w = 0 to n_weights - 1 do
      let rec consume bits =
        match bits with
        | [] -> ()
        | [ b ] -> emit w b
        | [ b1; b2 ] ->
            emit w b1;
            emit w b2
        | b1 :: b2 :: b3 :: b4 :: rest when not fa_only ->
            let s, carry, cout =
              Builder.comp42 c b1.net b2.net b3.net b4.net Ir.const0
            in
            let t0 = worst_at [ b1; b2; b3; b4 ] in
            emit w { net = s; at = t0 +. d_c42_s };
            emit (w + 1) { net = carry; at = t0 +. d_c42_c };
            emit (w + 1) { net = cout; at = t0 +. d_c42_co };
            consume rest
        | b1 :: b2 :: b3 :: rest ->
            (* three or more bits under an FA-only policy: full adder *)
            let s, carry = Builder.fa c b1.net b2.net b3.net in
            let t0 = worst_at [ b1; b2; b3 ] in
            emit w { net = s; at = t0 +. d_fa_s };
            emit (w + 1) { net = carry; at = t0 +. d_fa_c };
            consume rest
      in
      (* a column that needs reducing is sorted once when reordering:
         every pick takes the front of a sorted remainder. One or two
         bits pass through in column order. *)
      let bits = cols.(w) in
      consume
        (if reorder && List.compare_length_with bits 2 > 0 then
           by_arrival bits
         else bits)
    done;
    (* the 2-bit pass-through keeps this loop terminating because every
       column with more than two bits shrinks each stage; half adders enter
       the mix through the final ripple stage *)
    Array.blit next 0 cols 0 n_weights;
    incr stage
  done;
  let a = Array.make n_weights Ir.const0
  and b = Array.make n_weights Ir.const0 in
  Array.iteri
    (fun w bits ->
      match bits with
      | [] -> ()
      | [ x ] -> a.(w) <- x.net
      | [ x; y ] ->
          a.(w) <- x.net;
          b.(w) <- y.net
      | _ -> assert false)
    cols;
  (a, b)

(** Estimated number of compressor-first reduction stages for [h] leaves;
    places the FA-substitution boundary of the mixed topology. *)
let est_stages h =
  let rec go n acc = if n <= 2 then acc else go ((n + 1) / 2) (acc + 1) in
  go h 0

(* Carry-save pair of a CSA column over [leaves]. *)
let csa_pair c lib ~fa_ratio ~reorder ~leaves ~out_w =
  let h = Array.length leaves in
  let total = est_stages h in
  let comp_stages =
    int_of_float (Float.round ((1.0 -. fa_ratio) *. float_of_int total))
  in
  let use_fa stage = stage >= comp_stages in
  let columns = Array.make out_w [] in
  columns.(0) <-
    List.map (fun net -> { net; at = 0.0 }) (Array.to_list leaves);
  reduce c lib ~reorder ~use_fa columns

(** [build_flat c lib ~topology ~leaves] reduces the 1-bit [leaves] to a
    popcount bus without any pipelining. *)
let build_flat c lib ~topology ~(leaves : Ir.net array) =
  let h = Array.length leaves in
  assert (h >= 1);
  let out_w = Intmath.ceil_log2 h + 1 in
  match topology with
  | Rca_tree ->
      (* the conventional baseline: a binary tree of signed ripple-carry
         adder rows instantiated at the full result width every stage
         (sign-extended partial sums, no constant folding) — the
         "logically complex, throughput-reducing" structure of paper
         §II-B that CSA trees are measured against *)
      let rec level buses =
        match buses with
        | [] -> [| Ir.const0 |]
        | [ b ] -> b
        | _ ->
            let rec pair = function
              | [] -> []
              | [ b ] -> [ b ]
              | b1 :: b2 :: rest ->
                  let b1 = Builder.zero_extend b1 out_w
                  and b2 = Builder.zero_extend b2 out_w in
                  let s, _ = Builder.rca_add ~fold:false c b1 b2 Ir.const0 in
                  s :: pair rest
            in
            level (pair buses)
      in
      level (List.map (fun n -> [| n |]) (Array.to_list leaves))
  | Csa { fa_ratio; reorder } ->
      let a, b = csa_pair c lib ~fa_ratio ~reorder ~leaves ~out_w in
      let sum, _carry = Builder.rca_add c a b Ir.const0 in
      Builder.zero_extend sum out_w

(** [build c lib ~topology ~split ~reg_out ~retime_final_rca ~leaves]
    assembles the full column tree with the searcher's structural knobs:
    [split > 1] is tt3, [retime_final_rca] (with [reg_out]) is tt2, and
    [reg_out] is the tree/S&A pipeline register the latency-optimization
    step may remove. With [split > 1] the merge adder already sits behind
    the sub-tree registers, so tt2 is implied and the flag is ignored. *)
let build c lib ~topology ~split ~reg_out ~retime_final_rca
    ~(leaves : Ir.net array) : built =
  let h = Array.length leaves in
  assert (split >= 1 && h mod split = 0);
  let out_w = Intmath.ceil_log2 h + 1 in
  if split > 1 then begin
    let part = h / split in
    let partial =
      List.init split (fun i ->
          let sub = Array.sub leaves (i * part) part in
          let s = build_flat c lib ~topology ~leaves:sub in
          Builder.reg_bus ~tag:(Ir.Pipeline_reg "tree_split") c s)
    in
    let merged =
      List.fold_left
        (fun acc s ->
          let sum, co = Builder.rca_add c acc s Ir.const0 in
          Array.append sum [| co |])
        (List.hd partial) (List.tl partial)
    in
    let merged = Builder.zero_extend merged out_w in
    if reg_out then
      {
        sum = Builder.reg_bus ~tag:(Ir.Pipeline_reg "tree_out") c merged;
        latency = 2;
      }
    else { sum = merged; latency = 1 }
  end
  else
    match topology with
    | Csa { fa_ratio; reorder } when reg_out && retime_final_rca ->
        let a, b = csa_pair c lib ~fa_ratio ~reorder ~leaves ~out_w in
        let a = Builder.reg_bus ~tag:(Ir.Pipeline_reg "tree_cs_a") c a in
        let b = Builder.reg_bus ~tag:(Ir.Pipeline_reg "tree_cs_b") c b in
        let sum, _ = Builder.rca_add c a b Ir.const0 in
        { sum = Builder.zero_extend sum out_w; latency = 1 }
    | Rca_tree | Csa _ ->
        let s = build_flat c lib ~topology ~leaves in
        if reg_out then
          {
            sum = Builder.reg_bus ~tag:(Ir.Pipeline_reg "tree_out") c s;
            latency = 1;
          }
        else { sum = s; latency = 0 }
