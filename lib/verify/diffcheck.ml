(** Differential checking of a compiled macro against {!Golden}.

    The netlist is driven through complete MAC transactions — directed
    corner vectors first ({!Corners}), dense random batches after — and
    every word result (and the FP group exponent) is compared against the
    behavioural model. This replaces the random-only equivalence pass as
    the correctness core: the corners are exactly the inputs where a
    broken sign cycle, a saturated carry chain or a mis-aligned FP group
    diverge from random-vector behaviour.

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

(* ---------------- the checker ---------------- *)

(* One lane of a batch: a vector set checked on one weight copy
   (weights already rotated for copy > 0). *)
type lane_job = { set : Corners.vector_set; copy : int }

(** The differential checker, written once against {!Slice.S}: every
    (vector set × weight copy) job becomes one lane, so up to
    [E.max_lanes] transactions settle per netlist pass — 63 for
    [packed]. The test suite runs it on a scalar oracle too. *)
module Check (E : Slice.S) = struct
  module B = Testbench.Body (E)

  (* Load one chunk of lane jobs into a fresh simulator: every lane
     stores its own weights in the copy it reads, and (with MCR > 1)
     selects that copy through a per-lane [copy_sel]. Bits written into
     a copy no lane of that copy owns are zero — never read, since each
     lane only observes its selected copy. *)
  let load_chunk (m : Macro_rtl.t) (jobs : lane_job array) =
    let sim = E.create ~n_lanes:(Array.length jobs) m.Macro_rtl.design in
    let zero =
      Array.make_matrix m.Macro_rtl.words m.Macro_rtl.cfg.Macro_rtl.rows 0
    in
    List.sort_uniq compare (Array.to_list (Array.map (fun j -> j.copy) jobs))
    |> List.iter (fun c ->
           B.load_weights_lanes m sim ~copy:c
             (Array.map
                (fun j -> if j.copy = c then j.set.Corners.weights else zero)
                jobs));
    if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then
      E.set_bus_lanes sim "copy_sel" (Array.map (fun j -> j.copy) jobs);
    sim

  (* Judge one finished lane with the bench's judge: exponent first
     (FP), then words in order, first divergence wins; [checks] counts
     the comparisons made. *)
  let judge_lane (m : Macro_rtl.t) sim (results : int array array) l
      (job : lane_job) : int * failure option =
    let set = job.set and exp = if Testbench.is_fp m then 1 else 0 in
    match
      B.judge_mac_lane m sim ~weights:set.Corners.weights
        ~inputs:set.Corners.inputs results.(l) l
    with
    | () -> (exp + Array.length results.(l), None)
    | exception Testbench.Mismatch { word; expected; got; _ } ->
        let set_name =
          if word < 0 then set.Corners.name ^ " (group exponent)"
          else set.Corners.name
        in
        (exp + word + 1, Some { set_name; word; expected; got })

  (* [run m chunk] — load, run and judge one chunk on a fresh
     simulator, every lane starting from reset. Lanes are judged in job
     order up to the first divergence: the comparisons made, and the
     failing job with its failure. *)
  let run ?bug (m : Macro_rtl.t) (chunk : lane_job array) :
      int * (lane_job * failure) option =
    let sim = load_chunk m chunk in
    let results =
      B.run_mac ?fault:bug m sim
        ~inputs:(Array.map (fun j -> j.set.Corners.inputs) chunk)
    in
    let rec judge l checks =
      if l >= Array.length chunk then (checks, None)
      else
        match judge_lane m sim results l chunk.(l) with
        | c, None -> judge (l + 1) (checks + c)
        | c, Some f -> (checks + c, Some (chunk.(l), f))
    in
    judge 0 0

  (* Shrink a lane divergence to its minimal reproducer: the same chunk
     code on a one-job chunk — one fresh 1-lane simulator, one
     transaction, which a debug session replays without the lane
     machinery. If the re-run confirms, its failure record wins; a
     divergence only the wide run shows (a lane-equivalence bug in the
     engine itself) is reported with an explicit marker instead of
     being hidden. *)
  let reproduce ?bug (m : Macro_rtl.t) (job : lane_job) (f : failure) =
    match run ?bug m [| job |] with
    | _, Some (_, f) -> f
    | _, None ->
        { f with set_name = Printf.sprintf "%s (%s-only)" f.set_name E.name }

  (** [check_macro ?bug ~seed ~random_batches m] — drive a built macro
      through every directed corner set plus [random_batches] random
      sets, comparing every transaction against {!Golden}. With MCR > 1
      each set is additionally checked on the last weight copy (with
      row-rotated weights), covering the copy-select mux. The
      transactions pack as lanes, [E.max_lanes] at a time; every job
      starts from reset. Lanes are judged in set order and the first
      divergence wins, so the outcome is independent of the lane
      width. *)
  let check_macro ?bug ~seed ~random_batches (m : Macro_rtl.t) : outcome =
    let mcr = m.Macro_rtl.cfg.Macro_rtl.mcr in
    let rng = Rng.create seed in
    let sets =
      Corners.sets m @ Corners.random_sets rng m ~batches:random_batches
    in
    let jobs =
      List.concat_map
        (fun set ->
          if mcr > 1 then
            [
              { set; copy = 0 };
              {
                set =
                  {
                    set with
                    Corners.weights = rotate_rows set.Corners.weights;
                  };
                copy = mcr - 1;
              };
            ]
          else [ { set; copy = 0 } ])
        sets
      |> Array.of_list
    in
    let total = Array.length jobs in
    let rec chunks pos checks =
      if pos >= total then { checks; failure = None }
      else
        let n = min E.max_lanes (total - pos) in
        match run ?bug m (Array.sub jobs pos n) with
        | c, None -> chunks (pos + n) (checks + c)
        | c, Some (job, f) ->
            let f = reproduce ?bug m job f in
            let f =
              if job.copy = 0 then f
              else
                let set_name =
                  Printf.sprintf "%s@copy%d" f.set_name job.copy
                in
                { f with set_name }
            in
            { checks = checks + c; failure = Some f }
    in
    chunks 0 0
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

(** [check_spec_result ?bug ~seed ctx spec] — result form: the number of
    comparisons performed, or the first divergence as a diagnostic.
    Callers assert on the diagnostic instead of catching exceptions. *)
let check_spec_result ?bug ?random_batches ~seed (ctx : Ctx.t)
    (spec : Spec.t) : (int, Diag.t) Stdlib.result =
  let o = check_spec ?bug ?random_batches ~seed ctx spec in
  match o.failure with
  | None -> Ok o.checks
  | Some f -> Error (diag_of_failure spec f)
