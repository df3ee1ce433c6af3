(** Simulation-engine selection: which backend batch consumers run on.

    Two simulators exist: the scalar reference {!Sim} and the bit-sliced
    {!Sim_multiword}. The batch consumers (sign-off verification,
    differential checking, equivalence checking, shmoo power sweeps)
    only need the {!Slice.S} contract, so an engine value is just a name
    for which slice width {!slice} hands them: [`Packed] is the one-word
    63-lane slice, [`Multiword w] a [w]-lane one.

    The default stays [`Packed] everywhere: wider slices trade more work
    per net for fewer passes per job batch, and measured lane-cycles/s
    has never cleared the bench's 1.5× gate over one word (the
    [multiword_sim] section of BENCH_RESULTS.json records it per host). *)

type batch = [ `Packed | `Multiword of int ]
(** engines that run many lanes per pass — the ones {!slice} serves *)

type t = [ `Scalar | batch ]

let name : [< t ] -> string = function
  | `Scalar -> "scalar"
  | `Packed -> "packed"
  | `Multiword w -> Printf.sprintf "multiword:%d" w

(** [validate e] — range-check a [`Multiword] width before any simulator
    is built, so a bad [--engine] fails as one line, not a deep raise. *)
let validate (e : t) : (t, string) Stdlib.result =
  match e with
  | `Scalar | `Packed -> Ok e
  | `Multiword w ->
      if w >= 1 && w <= Sim_multiword.max_lanes then Ok e
      else
        Error
          (Printf.sprintf
             "multiword width %d out of range (1..%d)" w
             Sim_multiword.max_lanes)

(** [of_string s] parses an [--engine] argument: [scalar], [packed]
    (63 lanes) or [multiword:N] (N lanes, e.g. 126 or 252). *)
let of_string (s : string) : (t, string) Stdlib.result =
  match String.lowercase_ascii (String.trim s) with
  | "scalar" -> Ok `Scalar
  | "packed" -> Ok `Packed
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "multiword" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some w -> validate (`Multiword w)
          | None ->
              Error (Printf.sprintf "bad multiword width %S" rest))
      | _ ->
          Error
            (Printf.sprintf "unknown engine %S (scalar|packed|multiword:N)"
               s))

(** [slice e] — the {!Slice.S} implementation behind a batch engine. *)
let slice (e : batch) : (module Slice.S) =
  let w =
    match e with `Packed -> Sim_multiword.word_lanes | `Multiword w -> w
  in
  let (module M) = Slice.multiword w in
  (module M)
