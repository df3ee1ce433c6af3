(** Routing estimate: half-perimeter wirelength (HPWL) per net over the
    placed pin locations, converted into per-net wire capacitance that the
    post-layout timing and power runs consume. Primary I/O pins sit at the
    left die edge. *)

type t = {
  placement : Floorplan.t;
  hpwl_um : float array;  (** per net *)
  total_wirelength_um : float;
}

(* Per-net pin bounding boxes. *)
type bbox = {
  minx : float array;
  maxx : float array;
  miny : float array;
  maxy : float array;
}

let[@inline] touch b net x y =
  if x < b.minx.(net) then b.minx.(net) <- x;
  if x > b.maxx.(net) then b.maxx.(net) <- x;
  if y < b.miny.(net) then b.miny.(net) <- y;
  if y > b.maxy.(net) then b.maxy.(net) <- y

let build (p : Floorplan.t) : t =
  let d = p.design in
  let b =
    {
      minx = Array.make d.n_nets infinity;
      maxx = Array.make d.n_nets neg_infinity;
      miny = Array.make d.n_nets infinity;
      maxy = Array.make d.n_nets neg_infinity;
    }
  in
  (* widen the box of every net on instance [i]'s pins, inputs then
     outputs, to its location *)
  let pin_start = d.pin_start and pins = d.pins in
  for i = 0 to Ir.n_insts d - 1 do
    let x = p.x.(i) and y = p.y.(i) in
    for q = pin_start.(i) to pin_start.(i + 1) - 1 do
      touch b pins.(q) x y
    done
  done;
  (* primary I/O at the left edge, vertically centered *)
  let edge_y = p.die_h /. 2.0 in
  let edge (_, bus) =
    for k = 0 to Array.length bus - 1 do
      touch b bus.(k) 0.0 edge_y
    done
  in
  List.iter edge (Ir.inputs d.src);
  List.iter edge (Ir.outputs d.src);
  let { minx; maxx; miny; maxy } = b in
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
