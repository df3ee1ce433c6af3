(** The PPA triple stored in every subcircuit-library look-up table entry,
    characterized at the library's nominal voltage. *)

type t = {
  delay_ps : float;  (** worst input-to-output combinational delay *)
  area_um2 : float;
  energy_fj : float;  (** average switching energy per active cycle *)
  leakage_nw : float;
}

let zero = { delay_ps = 0.0; area_um2 = 0.0; energy_fj = 0.0; leakage_nw = 0.0 }

(** Componentwise sum, used when composing a macro estimate out of
    subcircuit entries. *)
let ( + ) a b =
  {
    delay_ps = Float.max a.delay_ps b.delay_ps;
    area_um2 = a.area_um2 +. b.area_um2;
    energy_fj = a.energy_fj +. b.energy_fj;
    leakage_nw = a.leakage_nw +. b.leakage_nw;
  }

(** [scale n t] replicates an entry [n] times (area/energy/leakage add,
    delay unchanged). *)
let scale n t =
  let f = float_of_int n in
  {
    delay_ps = t.delay_ps;
    area_um2 = t.area_um2 *. f;
    energy_fj = t.energy_fj *. f;
    leakage_nw = t.leakage_nw *. f;
  }
