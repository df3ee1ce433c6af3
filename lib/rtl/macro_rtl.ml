(** Whole-macro composition: assembles the seven subcircuits into one
    gate-level DCIM macro following the paper's Fig. 1 architecture.

    Dataflow per MAC: parallel inputs (optionally FP-aligned) load into
    per-row serializers; bits stream MSB-first through the WL drivers into
    the multiplier/mux plane; each column's adder tree produces a popcount;
    the S&A Horner-accumulates over the serial cycles; the OFU fuses the
    [weight_bits] columns of each word into a signed result.

    Control is exposed as primary inputs so a test bench (or an enclosing
    accelerator) can schedule MACs: [load] (capture parallel inputs into
    the serializers), [sa_en]/[sa_clr]/[sa_neg] (accumulator enable, clear,
    sign cycle) and, when MCR > 1, [copy_sel]. The latency fields say when
    to assert what; {!Testbench} implements the schedule.

    The blocks that repeat per row, column or word — the mul/mux row,
    the adder tree + S&A column and the OFU word — are each built once
    as an {!Ir.template} and stamped; their sizes fix the netlist's size
    before the bit cells, so its columns are allocated once, exactly. *)

type config = {
  rows : int;  (** H: inputs accumulated per column *)
  cols : int;  (** W: physical bit-cell columns; [cols / wb] words *)
  mcr : int;  (** memory-compute ratio: stored copies per compute element *)
  input_prec : Precision.t;
  weight_prec : Precision.t;
  cell_kind : Cell.sram_kind;
  mul_kind : Cell.mul_kind;
  tree : Adder_tree.topology;
  sa_kind : Shift_adder.kind;  (** ripple or carry-save accumulator *)
  tree_split : int;  (** tt3: 1, 2 or 4 sub-columns *)
  reg_after_tree : bool;  (** pipeline register between tree and S&A *)
  retime_final_rca : bool;  (** tt2 *)
  reg_sa_to_ofu : bool;  (** pipeline register between S&A and OFU *)
  ofu_retime : bool;  (** tt4: first fusion level before that register *)
  ofu_extra_pipe : bool;  (** tt5 *)
  ofu_fast_adder : bool;  (** carry-select instead of ripple adders *)
  align_pipeline : int;  (** 0..3 stages inside the FP aligner *)
  reg_output : bool;
  with_controller : bool;
      (** embed the MAC sequencer FSM: control pins are replaced by a
          [start] input and a [done] output *)
}

(** The classic DCIM configuration the searcher starts from. *)
let default ~rows ~cols ~mcr ~input_prec ~weight_prec =
  {
    rows;
    cols;
    mcr;
    input_prec;
    weight_prec;
    cell_kind = Cell.S6t;
    mul_kind = Cell.Tg_nor;
    tree = Adder_tree.Csa { fa_ratio = 0.0; reorder = false };
    sa_kind = Shift_adder.Lsb_right;
    tree_split = 1;
    reg_after_tree = true;
    retime_final_rca = false;
    reg_sa_to_ofu = true;
    ofu_retime = false;
    ofu_extra_pipe = false;
    ofu_fast_adder = false;
    align_pipeline = 2;
    reg_output = true;
    with_controller = false;
  }

type t = {
  cfg : config;
  design : Ir.design;
  db : int;  (** serial datapath bits of one input *)
  wb : int;  (** stored bits of one weight *)
  words : int;
  w_sa : int;
  result_width : int;
  neg_on_last : bool;
      (** sign-cycle position: last serial cycle (LSB-first S&A) or first
          (MSB-first) — the control schedule follows this *)
  align_lat : int;  (** cycles from x presented to serializer input valid *)
  tree_lat : int;  (** cycles from serial bit to S&A input *)
  post_lat : int;  (** cycles from last accumulation to result registered *)
}

(** [serial_cycles m] — serializer cycles per MAC. *)
let serial_cycles m = m.db

(** [mac_latency m] — total cycles from presenting inputs to a readable
    result (the load cycle included). *)
let mac_latency m = m.align_lat + 1 + m.db + m.tree_lat + m.post_lat

let build (lib : Library.t) (cfg : config) : t =
  let db = Precision.datapath_bits cfg.input_prec in
  let wb = Precision.datapath_bits cfg.weight_prec in
  assert (cfg.cols mod wb = 0);
  let words = cfg.cols / wb in
  let w_sa = Shift_adder.width ~rows:cfg.rows ~serial_bits:db in
  let result_width =
    Golden.result_width ~rows:cfg.rows ~input_bits:db ~weight_bits:wb
  in
  let ir = Ir.create ~name:"dcim_macro" () in
  let load = Ir.new_net ir
  and sa_en = Ir.new_net ir
  and sa_clr = Ir.new_net ir
  and sa_neg = Ir.new_net ir in
  if not cfg.with_controller then begin
    Ir.add_input ir "load" [| load |];
    Ir.add_input ir "sa_en" [| sa_en |];
    Ir.add_input ir "sa_clr" [| sa_clr |];
    Ir.add_input ir "sa_neg" [| sa_neg |]
  end;
  let sel_bits = Intmath.ceil_log2 (max cfg.mcr 1) in
  let copy_sel = Ir.new_bus ir (max sel_bits 1) in
  if cfg.mcr > 1 then Ir.add_input ir "copy_sel" copy_sel;
  (* ---- input boundary + optional FP alignment ---- *)
  let storage = Precision.storage_bits cfg.input_prec in
  let x_buses =
    Array.init cfg.rows (fun r ->
        let b = Ir.new_bus ir storage in
        Ir.add_input ir (Printf.sprintf "x%d" r) b;
        b)
  in
  let aligned, align_lat, align_en_net =
    match cfg.input_prec with
    | Precision.Int _ -> (x_buses, 0, None)
    | Precision.Fp fmt ->
        let cal = Builder.in_subcircuit ir "fp_align" in
        let align_en = Ir.new_net ir in
        if not cfg.with_controller then
          Ir.add_input ir "align_en" [| align_en |];
        let a =
          Fp_align.build cal fmt ~pipeline:cfg.align_pipeline ~en:align_en
            ~rows_packed:x_buses
        in
        Ir.add_output ir "group_exp" a.group_exp;
        (a.aligned, a.latency, Some align_en)
  in
  (* ---- WL drivers: serializers + row fanout ---- *)
  let cwl = Builder.in_subcircuit ir "wl_driver" in
  let load_leaves =
    Driver.fanout_tree cwl load ~consumers:(cfg.rows * db) ~max_fanout:16
  in
  let lsb_first = Shift_adder.lsb_first cfg.sa_kind in
  let x_bits =
    Array.mapi
      (fun r value ->
        assert (Array.length value = db);
        let q = Builder.fresh_bus cwl db in
        for i = 0 to db - 1 do
          (* MSB-first shifts left (serial bit at the top), LSB-first
             shifts right (serial bit at the bottom) *)
          let shifted =
            if lsb_first then if i = db - 1 then Ir.const0 else q.(i + 1)
            else if i = 0 then Ir.const0
            else q.(i - 1)
          in
          let d =
            Builder.mux2 cwl ~sel:load_leaves.((r * db) + i) shifted value.(i)
          in
          Builder.dff_into cwl ~d ~q:q.(i)
        done;
        if lsb_first then q.(0) else q.(db - 1))
      aligned
  in
  let row_leaves =
    Array.map
      (fun xb -> Driver.fanout_tree cwl xb ~consumers:cfg.cols ~max_fanout:16)
      x_bits
  in
  let sel_leaves =
    if cfg.mcr > 1 then
      Array.init sel_bits (fun b ->
          Driver.fanout_tree cwl copy_sel.(b)
            ~consumers:(cfg.rows * cfg.cols) ~max_fanout:16)
    else [||]
  in
  (* ---- BL drivers (write path: static area/leakage) ---- *)
  let cbl = Builder.in_subcircuit ir "bl_driver" in
  Driver.bl_drivers cbl ~cols:cfg.cols;
  (* ---- the repeated blocks, each built once and stamped per row,
     column or word (see {!Ir.template}) ---- *)
  let n_sel = if cfg.mcr > 1 then sel_bits else 0 in
  let per_cell = 1 + cfg.mcr + n_sel in
  (* one row of compute elements; column [col] takes its serial input
     bit, its [mcr] stored bits and its copy-select bits *)
  let mulmux_row, () =
    Ir.template ~inputs:(cfg.cols * per_cell) (fun body ins ->
        let cmm = Builder.in_subcircuit body "mulmux" in
        ( Array.init cfg.cols (fun col ->
              let at k = ins.((col * per_cell) + k) in
              Mulmux.build cmm ~variant:cfg.mul_kind ~x:(at 0)
                ~weights:(Array.init cfg.mcr (fun c -> at (1 + c)))
                ~sel:(Array.init n_sel (fun b -> at (1 + cfg.mcr + b)))),
          () ))
  in
  (* the S&A control fanout: [cols] enable, clear and negate leaves *)
  let column_ctl, () =
    Ir.template ~inputs:3 (fun body ins ->
        let csa = Builder.in_subcircuit body "shift_adder" in
        let en_leaves =
          Driver.fanout_tree csa ins.(0) ~consumers:cfg.cols ~max_fanout:16
        and clr_leaves =
          Driver.fanout_tree csa ins.(1) ~consumers:cfg.cols ~max_fanout:16
        and neg_leaves =
          Driver.fanout_tree csa ins.(2) ~consumers:cfg.cols ~max_fanout:16
        in
        (Array.concat [ en_leaves; clr_leaves; neg_leaves ], ()))
  in
  (* one column: adder tree over the [rows] products, then the S&A on
     the column's negate, clear and enable leaves *)
  let column, tree_lat =
    Ir.template ~inputs:(cfg.rows + 3) (fun body ins ->
        let ctree = Builder.in_subcircuit body "adder_tree" in
        let csa = Builder.in_subcircuit body "shift_adder" in
        let tree =
          Adder_tree.build ctree lib ~topology:cfg.tree ~split:cfg.tree_split
            ~reg_out:cfg.reg_after_tree
            ~retime_final_rca:cfg.retime_final_rca
            ~leaves:(Array.sub ins 0 cfg.rows)
        in
        let sa =
          Shift_adder.build ~kind:cfg.sa_kind csa ~rows:cfg.rows
            ~serial_bits:db ~sum:tree.sum ~neg:ins.(cfg.rows)
            ~clr:ins.(cfg.rows + 1) ~en:ins.(cfg.rows + 2)
        in
        (sa.acc, tree.latency))
  in
  (* one OFU word over its [wb] column accumulators, with the
     retiming/pipeline knobs *)
  let arch = if cfg.ofu_fast_adder then Builder.Csel 4 else Builder.Rca in
  let signed_weights = wb > 1 in
  let extra_pipe_level =
    if cfg.ofu_extra_pipe then Some (Ofu.n_levels wb / 2) else None
  in
  let word, post_lat =
    Ir.template ~inputs:(wb * w_sa) (fun body ins ->
        let cofu = Builder.in_subcircuit body "ofu" in
        let columns = Array.init wb (fun j -> Array.sub ins (j * w_sa) w_sa) in
        let result, lat =
          if cfg.reg_sa_to_ofu && cfg.ofu_retime then begin
            let parts =
              Ofu.prepare cofu ~signed_weights ~result_width columns
            in
            let parts =
              Ofu.fuse_level ~arch cofu ~result_width ~level:0 parts
            in
            let parts =
              List.map (Ofu.reg_part cofu ~tag:(Ir.Pipeline_reg "sa_ofu")) parts
            in
            let r, pl =
              Ofu.fuse ~arch cofu ~result_width ~from_level:1
                ~pipe_after_level:extra_pipe_level parts
            in
            (r, 1 + pl)
          end
          else if cfg.reg_sa_to_ofu then begin
            let columns =
              Array.map
                (Builder.reg_bus ~tag:(Ir.Pipeline_reg "sa_ofu") cofu)
                columns
            in
            let b =
              Ofu.build ~arch cofu ~signed_weights ~result_width
                ~pipe_after_level:extra_pipe_level ~columns
            in
            (b.result, 1 + b.latency)
          end
          else begin
            let b =
              Ofu.build ~arch cofu ~signed_weights ~result_width
                ~pipe_after_level:extra_pipe_level ~columns
            in
            (b.result, b.latency)
          end
        in
        (* tt5 fallback: if the word is too narrow for an internal level,
           the extra pipeline stage lands on the OFU output *)
        let result, lat =
          if cfg.ofu_extra_pipe && lat = (if cfg.reg_sa_to_ofu then 1 else 0)
          then
            ( Builder.reg_bus ~tag:(Ir.Pipeline_reg "ofu_pipe") cofu result,
              lat + 1 )
          else (result, lat)
        in
        if cfg.reg_output then
          ( Builder.reg_bus ~tag:(Ir.Pipeline_reg "macro_out") cofu result,
            lat + 1 )
        else (result, lat))
  in
  (* the optional embedded sequencer, on [start] and the control nets it
     drives: load, S&A enable, clear and negate, and the aligner enable *)
  let ctl_nets =
    match align_en_net with
    | Some n -> [| load; sa_en; sa_clr; sa_neg; n |]
    | None -> [| load; sa_en; sa_clr; sa_neg |]
  in
  let controller =
    if not cfg.with_controller then None
    else
      let tm, () =
        Ir.template ~inputs:(1 + Array.length ctl_nets) (fun body ins ->
            let cctl = Builder.in_subcircuit body "controller" in
            let schedule =
              {
                Controller.align_lat;
                tree_lat;
                serial_bits = db;
                post_lat;
                neg_on_last = Shift_adder.lsb_first cfg.sa_kind;
              }
            in
            let fsm = Controller.build cctl ~schedule ~start:ins.(0) in
            let drive src k = Builder.buf_into cctl ~src ~dst:ins.(k) in
            drive fsm.Controller.load 1;
            drive fsm.Controller.sa_en 2;
            drive fsm.Controller.sa_clr 3;
            drive fsm.Controller.sa_neg 4;
            if Array.length ins > 5 then drive fsm.Controller.align_en 5;
            ([| fsm.Controller.done_ |], ()))
      in
      Some tm
  in
  (* the blocks fix the rest of the netlist's size: size the columns
     once, exactly *)
  let n_cells = cfg.rows * cfg.cols * cfg.mcr in
  let cell_pins =
    Cell.n_inputs (Cell.Sram cfg.cell_kind)
    + Cell.n_outputs (Cell.Sram cfg.cell_kind)
  in
  let stamps =
    [ (cfg.rows, mulmux_row); (1, column_ctl); (cfg.cols, column);
      (words, word) ]
    @ match controller with Some tm -> [ (1, tm) ] | None -> []
  in
  let total f = List.fold_left (fun acc (k, tm) -> acc + (k * f tm)) 0 stamps in
  Ir.reserve ir
    ~insts:(n_cells + total Ir.template_insts)
    ~pins:((n_cells * cell_pins) + total Ir.template_pins);
  (* ---- bit cells and multiplier/mux plane ---- *)
  let cells = Bitcell.build ir ~kind:cfg.cell_kind ~rows:cfg.rows
      ~cols:cfg.cols ~mcr:cfg.mcr
  in
  let ins = Array.make (cfg.cols * per_cell) 0 in
  let products =
    Array.init cfg.rows (fun r ->
        for col = 0 to cfg.cols - 1 do
          let at = col * per_cell in
          ins.(at) <- row_leaves.(r).(col);
          for c = 0 to cfg.mcr - 1 do
            ins.(at + 1 + c) <- cells.(r).(col).(c)
          done;
          for b = 0 to n_sel - 1 do
            ins.(at + 1 + cfg.mcr + b) <- sel_leaves.(b).((r * cfg.cols) + col)
          done
        done;
        Ir.stamp ir mulmux_row ins)
  in
  (* ---- per-column adder tree + S&A ---- *)
  let leaves = Ir.stamp ir column_ctl [| sa_en; sa_clr; sa_neg |] in
  let ins = Array.make (cfg.rows + 3) 0 in
  let accs =
    Array.init cfg.cols (fun col ->
        for r = 0 to cfg.rows - 1 do
          ins.(r) <- products.(r).(col)
        done;
        ins.(cfg.rows) <- leaves.((2 * cfg.cols) + col);
        ins.(cfg.rows + 1) <- leaves.(cfg.cols + col);
        ins.(cfg.rows + 2) <- leaves.(col);
        Ir.stamp ir column ins)
  in
  (* ---- OFU per word ---- *)
  let ins = Array.make (wb * w_sa) 0 in
  for g = 0 to words - 1 do
    for j = 0 to wb - 1 do
      Array.iteri (fun k n -> ins.((j * w_sa) + k) <- n) accs.((g * wb) + j)
    done;
    Ir.add_output ir (Printf.sprintf "result%d" g) (Ir.stamp ir word ins)
  done;
  (* ---- optional embedded sequencer ---- *)
  Option.iter
    (fun tm ->
      let start = Ir.new_net ir in
      Ir.add_input ir "start" [| start |];
      let done_ = Ir.stamp ir tm (Array.append [| start |] ctl_nets) in
      Ir.add_output ir "done" done_)
    controller;
  {
    cfg;
    design = Ir.freeze ir;
    db;
    wb;
    words;
    w_sa;
    result_width;
    neg_on_last = Shift_adder.lsb_first cfg.sa_kind;
    align_lat;
    tree_lat;
    post_lat;
  }
