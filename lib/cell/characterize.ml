(** Custom-cell characterization flow.

    The paper characterizes customized circuits (SRAM cells, multipliers,
    multiplexers) into standard-cell-compatible LIB/LEF views so the digital
    flow can consume them (paper §III-D, Fig. 6). This module reproduces
    that step: it expands the analytic cell model of {!Library} into
    NLDM-style two-dimensional look-up tables (delay and output slew versus
    input slew and output load) plus the scalar power/area attributes the
    Liberty writer serializes. *)

(** Load axis of the characterization tables, in fF. *)
let load_axis = [| 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]

(** Input-slew axis of the characterization tables, in ps. *)
let slew_axis = [| 10.0; 20.0; 40.0; 80.0; 160.0 |]

type table = {
  loads : float array;
  slews : float array;
  values : float array array;  (** [values.(slew_i).(load_i)] in ps *)
}

type view = {
  kind : Cell.kind;
  drive : Cell.drive;
  params : Library.params;
  delay : table array;  (** one table per output pin *)
  out_slew : table array;
}

(** Slew degrades delay mildly in the NLDM model: 12 % of the input slew is
    added to the intrinsic delay, a standard first-order fit. *)
let slew_sensitivity = 0.12

let characterize_output lib ~kind ~drive ~out =
  let mk f =
    {
      loads = load_axis;
      slews = slew_axis;
      values =
        Array.map
          (fun slew -> Array.map (fun load -> f ~slew ~load) load_axis)
          slew_axis;
    }
  in
  let delay ~slew ~load =
    Library.delay_ps lib ~kind ~drive ~out ~load_ff:load
    +. (slew_sensitivity *. slew)
  in
  let out_slew ~slew:_ ~load =
    (* output transition is dominated by RC at the output *)
    let p = Library.params lib kind drive in
    2.2 *. p.drive_res_ps_per_ff *. load
  in
  (mk delay, mk out_slew)

(** [view lib kind drive] characterizes one cell into its table view. *)
let view lib kind drive : view =
  let n_out = Cell.n_outputs kind in
  let tabs = List.init n_out (fun o -> characterize_output lib ~kind ~drive ~out:o) in
  {
    kind;
    drive;
    params = Library.params lib kind drive;
    delay = Array.of_list (List.map fst tabs);
    out_slew = Array.of_list (List.map snd tabs);
  }

(** [lookup tab ~slew ~load] bilinearly interpolates the table, clamping to
    the axis ranges — the same semantics as a Liberty NLDM lookup. *)
let lookup (tab : table) ~slew ~load =
  let locate axis x =
    let n = Array.length axis in
    if x <= axis.(0) then (0, 0, 0.0)
    else if x >= axis.(n - 1) then (n - 1, n - 1, 0.0)
    else
      let rec go i =
        if axis.(i + 1) >= x then
          (i, i + 1, (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i)))
        else go (i + 1)
      in
      go 0
  in
  let s0, s1, sf = locate tab.slews slew in
  let l0, l1, lf = locate tab.loads load in
  let v s l = tab.values.(s).(l) in
  let a = v s0 l0 +. (lf *. (v s0 l1 -. v s0 l0)) in
  let b = v s1 l0 +. (lf *. (v s1 l1 -. v s1 l0)) in
  a +. (sf *. (b -. a))

(** [all lib] characterizes the full library at every drive strength. *)
let all lib =
  List.concat_map
    (fun k -> List.map (fun d -> view lib k d) Cell.all_drives)
    Cell.all_kinds
