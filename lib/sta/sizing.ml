(** Drive-strength assignment: the cell-sizing half of the paper's PPA
    fine-tuning step. Upsizes every instance on a violating path (negative
    slack against the target) in parallel, the way a synthesis engine's
    incremental optimization does, and confirms everything off-path stays
    at minimum drive. Like a synthesis engine, it never hands back a
    netlist slower than the one it was given: a round whose re-timed
    critical path is not shorter than the previous one is undone, and
    sizing stops there. *)

type result = {
  before_ps : float;
  after_ps : float;  (** never more than [before_ps] *)
  upsized : int;
      (** drive bumps kept: the sum over instances of the rise in drive
          index; the bumps of an undone round are not counted *)
  sta : Sta.report;
      (** the kept round's timing report: it matches the final drives, so
          [sta.crit_ps = after_ps] and a caller need not re-run STA *)
  loads : float array;  (** the fanout-load map [sta] was computed with *)
}

(* Drive indices follow the X1 -> X2 -> X4 ladder: a bump adds one, up
   to the last. *)
let max_drive = Cell.drive_index Cell.X4

(** [snapshot d] captures every instance's drive so a speculative sizing
    round can be rolled back with {!restore}. *)
let snapshot (d : Ir.design) : Ir.drive_snapshot = Bytes.copy d.drives

let restore (d : Ir.design) (snap : Ir.drive_snapshot) =
  Bytes.blit snap 0 d.drives 0 (Bytes.length d.drives)

(** [speed_up d lib ~target_ps] repeatedly upsizes every combinational or
    sequential cell whose output has negative slack. It stops when the
    nominal critical path meets [target_ps], when sizing saturates, when
    the round budget (enough for the X1→X2→X4 ladder plus load-feedback
    settling) runs out, or at the first round that does not shorten the
    critical path: that round's bumps are undone and the previous
    round's report is returned. Mutates instance drives in place. *)
let speed_up ?(max_rounds = 6) ?(wire_cap = fun (_ : Ir.net) -> 0.0)
    (d : Ir.design) (lib : Library.t) ~target_ps =
  (* one load map and one STA per round, shared between the forward pass
     and the slack pass; recomputed only after a round changed drives *)
  let analyze () =
    let loads = Ir.fanout_loads d lib ~wire_cap () in
    (Sta.analyze ~wire_cap ~loads d lib, loads)
  in
  let r0, loads0 = analyze () in
  let before = r0.Sta.crit_ps in
  let upsized = ref 0 in
  let kinds = d.kinds and drives = d.drives in
  let pin_start = d.pin_start and pins = d.pins in
  let rec go round (r : Sta.report) loads =
    if r.Sta.crit_ps <= target_ps || round >= max_rounds then (r, loads)
    else begin
      let slack = Sta.slacks r d lib ~wire_cap ~loads ~target_ps () in
      let entry = snapshot d in
      let bumps = ref 0 in
      for i = 0 to Bytes.length kinds - 1 do
        let kind = Char.code (Bytes.unsafe_get kinds i) in
        if not (Cell.is_storage Cell.kinds_by_index.(kind)) then begin
          let violating = ref false in
          for q = pin_start.(i) + Ir.n_ins_by_kind.(kind)
              to pin_start.(i + 1) - 1 do
            if slack.(pins.(q)) < -0.5 then violating := true
          done;
          let drive = Char.code (Bytes.unsafe_get drives i) in
          if !violating && drive < max_drive then begin
            Bytes.unsafe_set drives i (Char.unsafe_chr (drive + 1));
            incr bumps
          end
        end
      done;
      if !bumps = 0 then (r, loads)
      else
        let r', loads' = analyze () in
        if r'.Sta.crit_ps >= r.Sta.crit_ps then begin
          (* the round did not shorten the path: [r] and [loads] were
             computed at [entry], so they stay the final report *)
          restore d entry;
          (r, loads)
        end
        else begin
          upsized := !upsized + !bumps;
          go (round + 1) r' loads'
        end
    end
  in
  let sta, loads = go 0 r0 loads0 in
  {
    before_ps = before;
    after_ps = sta.Sta.crit_ps;
    upsized = !upsized;
    sta;
    loads;
  }

(** [relax d] returns every instance to X1 (minimum power/area), e.g.
    before re-running a power-preferring fine-tune. *)
let relax (d : Ir.design) =
  Bytes.fill d.drives 0 (Bytes.length d.drives)
    (Char.chr (Cell.drive_index Cell.X1))
