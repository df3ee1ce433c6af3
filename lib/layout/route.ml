(** Routing estimate: half-perimeter wirelength (HPWL) per net over the
    placed pin locations, converted into per-net wire capacitance that the
    post-layout timing and power runs consume. Primary I/O pins sit at the
    left die edge. *)

type t = {
  placement : Floorplan.t;
  hpwl_um : float array;  (** per net *)
  total_wirelength_um : float;
}

let build (p : Floorplan.t) : t =
  let d = p.design in
  let minx = Array.make d.n_nets infinity
  and maxx = Array.make d.n_nets neg_infinity
  and miny = Array.make d.n_nets infinity
  and maxy = Array.make d.n_nets neg_infinity in
  let touch net x y =
    if x < minx.(net) then minx.(net) <- x;
    if x > maxx.(net) then maxx.(net) <- x;
    if y < miny.(net) then miny.(net) <- y;
    if y > maxy.(net) then maxy.(net) <- y
  in
  Array.iteri
    (fun i (inst : Ir.inst) ->
      Array.iter (fun net -> touch net p.x.(i) p.y.(i)) inst.ins;
      Array.iter (fun net -> touch net p.x.(i) p.y.(i)) inst.outs)
    d.insts;
  (* primary I/O at the left edge, vertically centered *)
  let edge net = touch net 0.0 (p.die_h /. 2.0) in
  List.iter (fun (_, bus) -> Array.iter edge bus) (Ir.inputs d.src);
  List.iter (fun (_, bus) -> Array.iter edge bus) (Ir.outputs d.src);
  let hpwl = Array.make d.n_nets 0.0 in
  let total = ref 0.0 in
  for net = 2 to d.n_nets - 1 do
    (* constants don't route *)
    if Float.is_finite minx.(net) && maxx.(net) >= minx.(net) then begin
      hpwl.(net) <- maxx.(net) -. minx.(net) +. (maxy.(net) -. miny.(net));
      total := !total +. hpwl.(net)
    end
  done;
  { placement = p; hpwl_um = hpwl; total_wirelength_um = !total }

(** [wire_cap t node net] — routed capacitance of [net] in fF. *)
let wire_cap (t : t) (node : Node.t) net =
  t.hpwl_um.(net) *. node.Node.wire_cap_ff_per_um

(** [wire_cap_fn t node] packages {!wire_cap} for the STA/power APIs. *)
let wire_cap_fn (t : t) (node : Node.t) : Ir.net -> float =
 fun net -> wire_cap t node net
