(** Simulation-engine selection: which backend batch consumers run on.

    Two simulators exist: the scalar reference {!Sim} and the bit-sliced
    {!Sim_sliced}. The batch consumers (sign-off verification,
    differential checking, equivalence checking, shmoo power sweeps)
    only need the {!Slice.S} contract, so an engine value is just a name
    for which implementation {!slice} hands them: [`Packed] is the
    one-word 63-lane slice, the default everywhere; [`Scalar] is
    {!Slice.Scalar}, the 1-lane adapter over {!Sim}. *)

type batch = [ `Packed ]
(** engines that run many lanes per pass. Every consumer takes any
    {!t}; the name stays only because the benchmark harness
    ([perfbench/layers.ml]) annotates with it, and that harness changes
    only together with the benchmark definition. *)

type t = [ `Scalar | batch ]

let name : [< t ] -> string = function
  | `Scalar -> "scalar"
  | `Packed -> "packed"

(** [slice e] — the {!Slice.S} implementation behind engine [e]. *)
let slice : [< t ] -> (module Slice.S) = function
  | `Scalar -> (module Slice.Scalar)
  | `Packed -> (module Slice.Packed)
