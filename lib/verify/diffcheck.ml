(** Differential checking of a compiled macro against {!Golden}.

    A job builder for {!Testbench.Body.check_jobs}, the MAC checker
    sign-off also runs: directed corner vectors first ({!Corners}), dense
    random batches after, every word result (and the FP group exponent)
    compared against the behavioural model. The corners are exactly the
    inputs where a broken sign cycle, a saturated carry chain or a
    mis-aligned FP group diverge from random-vector behaviour.

    The driver also supports *fault injection*: a {!bug} reproduces a
    class of searcher-move defect (a retimed result register sampled one
    cycle early; a dropped sign cycle) so the test suite can prove the
    checker catches it and the shrinker reduces it. *)

type bug = Testbench.fault = Retime_early_sample | Skip_sign_cycle

let bug_name = function
  | Retime_early_sample -> "retime-early-sample"
  | Skip_sign_cycle -> "skip-sign-cycle"

type failure = {
  set_name : string;  (** which vector set diverged *)
  word : int;  (** word index, or -1 for the FP group exponent *)
  expected : int;
  got : int;
}

type outcome = {
  checks : int;  (** word/exponent comparisons performed *)
  failure : failure option;  (** first divergence, if any *)
}

let describe_failure (f : failure) =
  Printf.sprintf "%s: word %d expected %d, got %d" f.set_name f.word
    f.expected f.got

(** [diag_of_failure spec f] — a differential divergence as a structured
    stage diagnostic, so the campaign and the CLI report through the same
    {!Diag} channel as the compilation pipeline. *)
let diag_of_failure ?(stage = "diffcheck") (spec : Spec.t) (f : failure) :
    Diag.t =
  Diag.error ~stage ~spec
    ~payload:
      [
        ("set", f.set_name);
        ("word", string_of_int f.word);
        ("expected", string_of_int f.expected);
        ("got", string_of_int f.got);
      ]
    (describe_failure f)

(* rotate rows so each weight copy stores a distinguishable pattern *)
let rotate_rows (weights : int array array) =
  Array.map
    (fun per_row ->
      let n = Array.length per_row in
      Array.init n (fun r -> per_row.((r + 1) mod n)))
    weights

(* The checker's failure as a labelled record: the job's name, the FP
   group exponent when that diverged, the engine-only marker, and the
   weight copy when it is not copy 0. *)
let failure_of ({ job; word; expected; got; marker; _ } : Testbench.failure) =
  let label =
    job.name ^ (if word < 0 then " (group exponent)" else "") ^ marker
  in
  let set_name =
    if job.copy = 0 then label else Printf.sprintf "%s@copy%d" label job.copy
  in
  { set_name; word; expected; got }

(* ---------------- the job builder ---------------- *)

(** The differential job builder over any {!Slice.S}: every (vector set
    × weight copy) job becomes one lane of {!Testbench.Body.check_jobs},
    so up to [E.max_lanes] transactions settle per netlist pass — 63
    for [packed]. The test suite runs it on a scalar oracle too. *)
module Check (E : Slice.S) = struct
  module B = Testbench.Body (E)

  (** [check_macro ?bug ~seed ~random_batches m] — drive a built macro
      through every directed corner set plus [random_batches] random
      sets, comparing every transaction against {!Golden}. With MCR > 1
      each set is additionally checked on the last weight copy (with
      row-rotated weights), covering the copy-select mux. Every job
      starts from reset; lanes are judged in set order and the first
      divergence wins, so the outcome is independent of the lane
      width. *)
  let check_macro ?bug ~seed ~random_batches (m : Macro_rtl.t) : outcome =
    let mcr = m.cfg.mcr in
    let rng = Rng.create seed in
    let jobs =
      Corners.sets m @ Corners.random_sets rng m ~batches:random_batches
      |> List.concat_map (fun (job : Testbench.job) ->
             if mcr > 1 then
               [
                 job;
                 { job with weights = rotate_rows job.weights; copy = mcr - 1 };
               ]
             else [ job ])
      |> Array.of_list
    in
    let checks, failure = B.check_jobs ?fault:bug m jobs in
    { checks; failure = Option.map failure_of failure }
end

(** [check_macro ?engine ?bug ~seed ~random_batches m] — {!Check}'s
    [check_macro] on the engine's slice ({!Engine.slice}). *)
let check_macro ?(engine : Engine.t = `Packed) ?bug ~seed ~random_batches
    (m : Macro_rtl.t) : outcome =
  let module E = (val Engine.slice engine) in
  let module C = Check (E) in
  C.check_macro ?bug ~seed ~random_batches m

(** [check_spec ?bug ?random_batches ~seed ctx spec] — compile the
    spec's initial configuration over the context's library and check it
    differentially. This is the unit of work a fuzz campaign fans out
    over the pool; each unit settles its whole vector batch in one
    lane-parallel pass. *)
let check_spec ?bug ?(random_batches = 2) ~seed (ctx : Ctx.t) (spec : Spec.t)
    : outcome =
  let m = Macro_rtl.build (Ctx.lib ctx) (Spec.initial_config spec) in
  check_macro ?bug ~seed ~random_batches m

(** [fails ?bug ~seed ctx spec] — predicate form for the shrinker. *)
let fails ?bug ~seed (ctx : Ctx.t) spec =
  (check_spec ?bug ~seed ctx spec).failure <> None
