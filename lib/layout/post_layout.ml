(** Post-layout sign-off: place, route and re-run static timing with the
    extracted wire capacitances ({!place_route}), check DRC and LVS
    ({!check}), and price power on the routed wires — the repository's
    PrimeTime-after-Innovus step (paper Fig. 6). *)

type t = {
  placement : Floorplan.t;
  routing : Route.t;
  drc_violations : Drc.violation list;
  lvs : Lvs.report;
  sta : Sta.report;  (** with wire loads *)
  area_mm2 : float;
  total_wirelength_mm : float;
}

exception Signoff_failed of string

(** A placed and routed macro, timed with its extracted wire loads but
    not yet checked: the first half of {!run}. The ECO loop re-places
    through this step alone and checks only the layout it keeps. *)
type routed = {
  r_placement : Floorplan.t;
  r_routing : Route.t;
  r_sta : Sta.report;  (** with wire loads *)
}

(** [place_route lib macro ~style] places, routes and re-times [macro]
    at its current drives. *)
let place_route ?(seed = 0x5D9) (lib : Library.t) (m : Macro_rtl.t)
    ~(style : Floorplan.style) : routed =
  let r_placement =
    match style with
    | Floorplan.Sdp -> Floorplan.sdp lib m
    | Floorplan.Scattered -> Floorplan.scattered lib m ~seed
  in
  let r_routing = Route.build r_placement in
  let wire_cap = Route.wire_cap_fn r_routing lib.Library.node in
  let r_sta = Sta.analyze ~wire_cap m.Macro_rtl.design lib in
  { r_placement; r_routing; r_sta }

(** [check lib r] — DRC and LVS of a routed layout, the second half of
    {!run}. The instance drives must still be the ones [r] was placed
    with. Raises {!Signoff_failed} when either check fails. *)
let check (lib : Library.t) (r : routed) : t =
  let placement = r.r_placement in
  let drc_violations = Drc.check lib placement in
  if drc_violations <> [] then
    raise
      (Signoff_failed
         (Printf.sprintf "DRC: %d violations, first: %s"
            (List.length drc_violations)
            (Drc.violation_to_string (List.hd drc_violations))));
  let lvs = Lvs.check placement in
  if not lvs.Lvs.clean then
    raise
      (Signoff_failed
         (Printf.sprintf "LVS: %s"
            (match lvs.Lvs.errors with e :: _ -> e | [] -> "unknown")));
  {
    placement;
    routing = r.r_routing;
    drc_violations;
    lvs;
    sta = r.r_sta;
    area_mm2 = Floorplan.area_mm2 placement;
    total_wirelength_mm = r.r_routing.Route.total_wirelength_um /. 1e3;
  }

(** [run lib macro ~style] executes the back-end flow on a built macro:
    {!place_route}, then {!check}. Raises {!Signoff_failed} when DRC or
    LVS fails — the compiler refuses to hand out a macro that does not
    sign off. *)
let run ?seed (lib : Library.t) (m : Macro_rtl.t) ~(style : Floorplan.style) :
    t =
  check lib (place_route ?seed lib m ~style)

(** [power lib m t ~freq_hz ~vdd ~input_density ~weight_density ~macs] —
    post-layout power: the same streaming workload as the pre-layout
    estimate, with routed wire capacitance charged on every toggle. *)
let power ?seed lib (m : Macro_rtl.t) (t : t) ~freq_hz ~vdd ~input_density
    ~weight_density ~macs =
  let sim =
    Testbench.power_stream ?seed ~n_lanes:1 m ~input_density ~weight_density
      ~macs
  in
  let wire_cap = Route.wire_cap_fn t.routing lib.Library.node in
  Power.estimate m.Macro_rtl.design lib sim ~freq_hz ~vdd ~wire_cap ()
