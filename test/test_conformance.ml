(* Cross-engine conformance: the one battery from Conformance.Make
   instantiated for the scalar/packed pair. The scalar engine is the
   semantic ground truth; the packed engine (the 63-lane bit-sliced
   simulator) is the production default and the only sliced engine.

   The second instantiation drives the packed engine across a two-word
   (126-lane) ensemble, as consecutive one-word slices — how sign-off,
   differential and equivalence checking run any batch wider than one
   word. Its wider runs pay one scalar replica per lane, so it runs
   fewer fuzz iterations. *)

module Scalar_vs_packed = Conformance.Make (struct
  let reference = `Scalar
  let candidate = `Packed
  let lanes = Sim_sliced.word_lanes
  let fuzz_count = 21
end) ()

module Scalar_vs_packed_two_words = Conformance.Make (struct
  let reference = `Scalar
  let candidate = `Packed
  let lanes = 2 * Sim_sliced.word_lanes
  let fuzz_count = 4
end) ()

let () =
  Alcotest.run "conformance"
    (Scalar_vs_packed.suite @ Scalar_vs_packed_two_words.suite)
