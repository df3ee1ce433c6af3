(** SRAM bit-cell array.

    Each (row, column, copy) address instantiates one storage cell of the
    configured kind, tagged {!Ir.Weight_bit} so the BL-driver write path
    (modelled by {!Sim_sliced.set_weight_lanes}) can address it. *)

(** [build ir ~kind ~rows ~cols ~mcr] returns
    [cells.(row).(col).(copy) : Ir.net], the read-port nets. *)
let build (ir : Ir.t) ~(kind : Cell.sram_kind) ~rows ~cols ~mcr =
  Array.init rows (fun row ->
      Array.init cols (fun col ->
          Array.init mcr (fun copy ->
              let out = Ir.new_net ir in
              ignore
                (Ir.add
                   ~tag:(Ir.Weight_bit { row; col; copy })
                   ir (Cell.Sram kind) ~ins:[||] ~outs:[| out |]);
              out)))
