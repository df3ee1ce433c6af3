(** Post-layout sign-off: place, route, DRC, LVS, then re-run static
    timing and power with the extracted wire capacitances — the
    repository's PrimeTime-after-Innovus step (paper Fig. 6). *)

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

(** [run lib macro ~style] executes the back-end flow on a built macro.
    Raises {!Signoff_failed} when DRC or LVS fails — the compiler refuses
    to hand out a macro that does not sign off. *)
let run ?(seed = 0x5D9) (lib : Library.t) (m : Macro_rtl.t)
    ~(style : Floorplan.style) : t =
  let placement =
    match style with
    | Floorplan.Sdp -> Floorplan.sdp lib m
    | Floorplan.Scattered -> Floorplan.scattered lib m ~seed
  in
  let routing = Route.build placement in
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
  let wire_cap = Route.wire_cap_fn routing lib.Library.node in
  let sta = Sta.analyze ~wire_cap m.Macro_rtl.design lib in
  {
    placement;
    routing;
    drc_violations;
    lvs;
    sta;
    area_mm2 = Floorplan.area_mm2 placement;
    total_wirelength_mm = routing.Route.total_wirelength_um /. 1e3;
  }

(** [power lib m t ~freq_hz ~vdd ~input_density ~weight_density ~macs] —
    post-layout power: the same streaming workload as the pre-layout
    estimate, with routed wire capacitance charged on every toggle. *)
let power ?seed lib (m : Macro_rtl.t) (t : t) ~freq_hz ~vdd ~input_density
    ~weight_density ~macs =
  let sim =
    Testbench.power_stream ?seed m ~input_density ~weight_density ~macs
  in
  let wire_cap = Route.wire_cap_fn t.routing lib.Library.node in
  Power.estimate m.Macro_rtl.design lib sim ~freq_hz ~vdd ~wire_cap ()
