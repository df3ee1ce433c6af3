(** The bit-sliced simulator abstraction every batch consumer drives.

    The contract: independent lanes, broadcast or per-lane bus drives,
    exact lane-summed toggle accounting. The sign-off bench, the
    differential checker and the equivalence checker are each written
    once against {!S}. The compiler runs them on {!Packed}, the one
    {!Sim_sliced} slice ({!Engine.slice}); the test suite passes the
    same consumers a scalar oracle simulator as a 1-lane {!S} and pins
    the packed engine to it bit for bit.

    [max_lanes] is the implementation's slice width (the chunk size
    batch consumers fan jobs out by), and [create]'s default width. *)

module type S = sig
  type t

  val name : string
  (** engine label for traces and error messages, e.g. ["packed"] *)

  val max_lanes : int
  (** slice width: the widest [create] this engine accepts, and the
      chunk size consumers batch jobs by *)

  val create : ?n_lanes:int -> Ir.design -> t
  (** fresh simulator, [n_lanes] defaulting to [max_lanes] *)

  val lanes_of : t -> int
  val set_bus : t -> string -> int -> unit
  (** broadcast: every lane sees the same bus value *)

  val set_bus_lanes : t -> string -> int array -> unit
  (** per-lane bus values; lanes beyond the array are driven to zero *)

  val read_bus_lane : t -> string -> int -> int
  val read_bus_signed_lane : t -> string -> int -> int
  val extract_lane : t -> int -> bool array
  val seq_state_lane : t -> int -> bool array
  val storage_state_lane : t -> int -> bool array

  val set_weight_lanes :
    t -> row:int -> col:int -> copy:int -> bool array -> unit
  (** one weight bit per lane; lanes beyond the array store [false].
      Every active lane is charged a write; flipped lanes a flip. *)

  val eval : t -> unit
  val clock : t -> unit
  val step : t -> unit
  val reset_stats : t -> unit

  (* lane-summed activity counters: per net, per instance, totals *)
  val toggles : t -> int array
  val en_cycles : t -> int array
  val cycles : t -> int
  val weight_flips : t -> int
  val weight_writes : t -> int
end

(** The 63-lane {!Sim_sliced} slice: the [packed] engine. *)
module Packed : S with type t = Sim_sliced.t = Sim_sliced
