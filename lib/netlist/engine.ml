(** Simulation-engine selection. One simulator ships, the bit-sliced
    {!Sim_sliced}: [`Packed] names it, and {!slice} hands its {!Slice.S}
    ({!Slice.Packed}) to the batch consumers. The names stay because the
    benchmark harness ([perfbench/layers.ml]) annotates and matches with
    them, and that harness changes only together with the benchmark
    definition. *)

type batch = [ `Packed ]
type t = batch

(** [slice e] — the {!Slice.S} implementation behind engine [e]. *)
let slice : [< t ] -> (module Slice.S) = function
  | `Packed -> (module Slice.Packed)
