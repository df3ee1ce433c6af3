(** Drive-strength assignment: the cell-sizing half of the paper's PPA
    fine-tuning step. Upsizes every instance on a violating path (negative
    slack against the target) in parallel, the way a synthesis engine's
    incremental optimization does, and confirms everything off-path stays
    at minimum drive. *)

type result = {
  before_ps : float;
  after_ps : float;
  upsized : int;  (** number of drive bumps applied *)
  sta : Sta.report;
      (** the last round's timing report: it matches the final drives, so
          [sta.crit_ps = after_ps] and a caller need not re-run STA *)
  loads : float array;  (** the fanout-load map [sta] was computed with *)
}

let bump = function
  | Cell.X1 -> Some Cell.X2
  | Cell.X2 -> Some Cell.X4
  | Cell.X4 -> None

(** [speed_up d lib ~target_ps] repeatedly upsizes every combinational or
    sequential cell whose output has negative slack until the nominal
    critical path meets [target_ps], sizing saturates, or the round budget
    (enough for the X1→X2→X4 ladder plus load-feedback settling) runs
    out. Mutates instance drives in place. *)
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
  let insts = d.insts in
  let rec go round (r : Sta.report) loads =
    if r.Sta.crit_ps <= target_ps || round >= max_rounds then (r, loads)
    else begin
      let slack = Sta.slacks r d lib ~wire_cap ~loads ~target_ps () in
      let changed = ref false in
      for i = 0 to Array.length insts - 1 do
        let inst = insts.(i) in
        if not (Cell.is_storage inst.kind) then begin
          let outs = inst.outs in
          let violating = ref false in
          for o = 0 to Array.length outs - 1 do
            if slack.(outs.(o)) < -0.5 then violating := true
          done;
          if !violating then
            match bump inst.drive with
            | Some up ->
                inst.drive <- up;
                incr upsized;
                changed := true
            | None -> ()
        end
      done;
      if not !changed then (r, loads)
      else
        let r', loads' = analyze () in
        go (round + 1) r' loads'
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
  Array.iter (fun (i : Ir.inst) -> i.drive <- Cell.X1) d.insts

(** [snapshot d] captures every instance's drive so a speculative sizing
    round can be rolled back with {!restore}. *)
let snapshot (d : Ir.design) =
  Array.map (fun (i : Ir.inst) -> i.drive) d.insts

let restore (d : Ir.design) snap =
  Array.iteri (fun idx (i : Ir.inst) -> i.drive <- snap.(idx)) d.insts
