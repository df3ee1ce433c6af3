(** Simulation-engine selection: which backend batch consumers run on.

    Two simulators exist: the scalar reference {!Sim} and the bit-sliced
    {!Sim_multiword}. The batch consumers (sign-off verification,
    differential checking, equivalence checking, shmoo power sweeps)
    only need the {!Slice.S} contract, so an engine value is just a name
    for which implementation {!slice} hands them: [`Packed] is the
    one-word 63-lane slice, the default everywhere. *)

type batch = [ `Packed ]
(** engines that run many lanes per pass — the ones {!slice} serves *)

type t = [ `Scalar | batch ]

let name : [< t ] -> string = function
  | `Scalar -> "scalar"
  | `Packed -> "packed"

(** [of_string s] parses an [--engine] argument: [scalar] or [packed]
    (63 lanes). *)
let of_string (s : string) : (t, string) Stdlib.result =
  match String.lowercase_ascii (String.trim s) with
  | "scalar" -> Ok `Scalar
  | "packed" -> Ok `Packed
  | s -> Error (Printf.sprintf "unknown engine %S (scalar|packed)" s)

(** [slice e] — the {!Slice.S} implementation behind a batch engine. *)
let slice (`Packed : batch) : (module Slice.S) = (module Slice.Packed)
