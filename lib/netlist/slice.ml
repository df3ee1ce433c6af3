(** The bit-sliced simulator abstraction every batch consumer drives.

    The 63-lane {!Sim_sliced} ({!Packed}) and the scalar {!Sim}
    ({!Scalar}) expose the same semantics: independent lanes, broadcast
    or per-lane bus drives, exact lane-summed toggle accounting. This
    module captures that contract as a module type so the sign-off
    bench, the differential checker, the equivalence checker and the
    shmoo harness are each written once against {!S}; {!Engine.slice}
    picks the implementation, and the [scalar] engine is simply the
    1-lane {!Scalar} adapter running the same body. The cross-engine
    conformance suite in test/ pins every consumer's output under both
    implementations to per-lane {!Sim} replicas.

    [max_lanes] is the implementation's slice width (the chunk size
    batch consumers fan jobs out by), and [create]'s default width. *)

module type S = sig
  type t

  val name : string
  (** engine label for traces and error messages: ["packed"] or
      ["scalar"] *)

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

  val set_weight_all : t -> row:int -> col:int -> copy:int -> bool -> unit
  val eval : t -> unit
  val clock : t -> unit
  val step : t -> unit
  val reset_stats : t -> unit

  (* lane-summed activity counters, in {!Sim}'s layout *)
  val toggles : t -> int array
  val en_cycles : t -> int array
  val cycles : t -> int
  val weight_flips : t -> int
  val weight_writes : t -> int
end

(** The 63-lane {!Sim_sliced} slice: the [packed] engine. *)
module Packed : S with type t = Sim_sliced.t = struct
  type t = Sim_sliced.t

  let name = "packed"
  let max_lanes = Sim_sliced.word_lanes
  let create = Sim_sliced.create
  let lanes_of = Sim_sliced.lanes_of
  let set_bus = Sim_sliced.set_bus
  let set_bus_lanes = Sim_sliced.set_bus_lanes
  let read_bus_lane = Sim_sliced.read_bus_lane
  let read_bus_signed_lane = Sim_sliced.read_bus_signed_lane
  let extract_lane = Sim_sliced.extract_lane
  let seq_state_lane = Sim_sliced.seq_state_lane
  let storage_state_lane = Sim_sliced.storage_state_lane
  let set_weight_lanes = Sim_sliced.set_weight_lanes
  let set_weight_all = Sim_sliced.set_weight_all
  let eval = Sim_sliced.eval
  let clock = Sim_sliced.clock
  let step = Sim_sliced.step
  let reset_stats = Sim_sliced.reset_stats
  let toggles (t : t) = t.Sim_sliced.toggles
  let en_cycles (t : t) = t.Sim_sliced.en_cycles
  let cycles (t : t) = t.Sim_sliced.cycles
  let weight_flips (t : t) = t.Sim_sliced.weight_flips
  let weight_writes (t : t) = t.Sim_sliced.weight_writes
end

(** The scalar {!Sim} as a 1-lane slice: the [scalar] engine. Every
    batch consumer runs the reference simulator through the same body it
    runs the packed engine through, one job per chunk. *)
module Scalar : S with type t = Sim.t = struct
  type t = Sim.t

  let name = "scalar"
  let max_lanes = 1

  let create ?n_lanes d =
    (match n_lanes with
    | Some l when l <> 1 ->
        invalid_arg
          (Printf.sprintf
             "Slice.Scalar.create: requested %d lanes, valid range is 1..1" l)
    | Some _ | None -> ());
    Sim.create d

  let lanes_of (_ : t) = 1
  let set_bus = Sim.set_bus

  let set_bus_lanes t name vs =
    Sim.set_bus t name (if Array.length vs >= 1 then vs.(0) else 0)

  let read_bus_lane t name lane =
    assert (lane = 0);
    Sim.read_bus t name

  let read_bus_signed_lane t name lane =
    assert (lane = 0);
    Sim.read_bus_signed t name

  let extract_lane (t : t) lane =
    assert (lane = 0);
    Array.copy t.Sim.values

  let seq_state_lane (t : t) lane =
    assert (lane = 0);
    Array.copy t.Sim.seq_state

  let storage_state_lane (t : t) lane =
    assert (lane = 0);
    Array.copy t.Sim.storage_state

  let set_weight_lanes t ~row ~col ~copy (bits : bool array) =
    Sim.set_weight t ~row ~col ~copy (Array.length bits >= 1 && bits.(0))

  let set_weight_all t ~row ~col ~copy bit = Sim.set_weight t ~row ~col ~copy bit
  let eval = Sim.eval
  let clock = Sim.clock
  let step = Sim.step
  let reset_stats = Sim.reset_stats
  let toggles (t : t) = t.Sim.toggles
  let en_cycles (t : t) = t.Sim.en_cycles
  let cycles (t : t) = t.Sim.cycles
  let weight_flips (t : t) = t.Sim.weight_flips
  let weight_writes (t : t) = t.Sim.weight_writes
end
