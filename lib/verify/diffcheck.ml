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

type bug =
  | Retime_early_sample
      (** read the result one cycle before the retimed pipeline commits *)
  | Skip_sign_cycle  (** never assert [sa_neg]: the two's-complement bug *)

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

(* ---------------- the chunk engine ---------------- *)

(* One lane of a batch: a vector set checked on one weight copy
   (weights already rotated for copy > 0). *)
type lane_job = { set : Corners.vector_set; copy : int }

(** The differential chunk engine, written once against {!Slice.S}:
    every (vector set × weight copy) job becomes one lane, so up to
    [E.max_lanes] transactions settle per netlist pass — 63 for
    [packed], one for the {!Slice.Scalar} reference. *)
module Chunk (E : Slice.S) = struct
  (* One full MAC transaction per lane, optionally with an injected
     fault: {!Testbench.Sliced.run_mac}'s schedule, kept separate so a
     fault never leaks into the production bench. The control schedule
     (and any fault) is broadcast to every lane, the inputs differ per
     lane. Returns results.(lane).(word). *)
  let run_mac ?bug (m : Macro_rtl.t) sim ~(inputs : int array array) =
    let module B = Testbench.Sliced (E) in
    let db = m.Macro_rtl.db in
    B.present_inputs_lanes m sim inputs;
    B.set_controls m sim ~load:false ~sa_en:false ~sa_clr:false
      ~sa_neg:false;
    B.set_align_en m sim true;
    for _ = 1 to m.Macro_rtl.align_lat do
      E.step sim
    done;
    B.set_align_en m sim false;
    B.set_controls m sim ~load:true ~sa_en:false ~sa_clr:false
      ~sa_neg:false;
    E.step sim;
    let last = m.Macro_rtl.tree_lat + db - 1 in
    for k = 0 to last do
      let first = k = m.Macro_rtl.tree_lat in
      let sign_cycle =
        if m.Macro_rtl.neg_on_last then k = last else first
      in
      let sa_neg =
        sign_cycle && db > 1 && bug <> Some Skip_sign_cycle
      in
      B.set_controls m sim ~load:false
        ~sa_en:(k >= m.Macro_rtl.tree_lat)
        ~sa_clr:first ~sa_neg;
      E.step sim
    done;
    B.set_controls m sim ~load:false ~sa_en:false ~sa_clr:false
      ~sa_neg:false;
    let post =
      match bug with
      | Some Retime_early_sample -> max 0 (m.Macro_rtl.post_lat - 1)
      | _ -> m.Macro_rtl.post_lat
    in
    for _ = 1 to post do
      E.step sim
    done;
    E.eval sim;
    B.read_results m sim ~n:(E.lanes_of sim) ~shift:0

  (* Load one chunk of lane jobs into a fresh simulator: every
     lane stores its own weights in the copy it reads, and (with MCR >
     1) selects that copy through a per-lane [copy_sel]. Bits written
     into a copy no lane of that copy owns are zero — never read, since
     each lane only observes its selected copy. *)
  let load_chunk (m : Macro_rtl.t) (jobs : lane_job array) =
    let n = Array.length jobs in
    let sim = E.create ~n_lanes:n m.Macro_rtl.design in
    let copies =
      List.sort_uniq compare
        (Array.to_list (Array.map (fun j -> j.copy) jobs))
    in
    let bits = Array.make n false in
    List.iter
      (fun c ->
        for g = 0 to m.Macro_rtl.words - 1 do
          for r = 0 to m.Macro_rtl.cfg.Macro_rtl.rows - 1 do
            for j = 0 to m.Macro_rtl.wb - 1 do
              for l = 0 to n - 1 do
                bits.(l) <-
                  jobs.(l).copy = c
                  && (jobs.(l).set.Corners.weights.(g).(r) asr j) land 1 = 1
              done;
              E.set_weight_lanes sim ~row:r
                ~col:((g * m.Macro_rtl.wb) + j)
                ~copy:c bits
            done
          done
        done)
      copies;
    if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then
      E.set_bus_lanes sim "copy_sel" (Array.map (fun j -> j.copy) jobs);
    sim

  (* Judge one finished lane: exponent first (FP), then words in order,
     first divergence wins; [checks] counts the comparisons made. *)
  let judge_lane (m : Macro_rtl.t) sim (results : int array array) l
      (job : lane_job) : int * failure option =
    let set = job.set in
    let xs, exp_expected = Testbench.datapath_inputs m set.Corners.inputs in
    let checks = ref 0 in
    let fail = ref None in
    (match exp_expected with
    | Some e ->
        incr checks;
        let got = E.read_bus_lane sim "group_exp" l in
        if got <> e then
          fail :=
            Some
              {
                set_name = set.Corners.name ^ " (group exponent)";
                word = -1;
                expected = e;
                got;
              }
    | None -> ());
    Array.iteri
      (fun g got ->
        if !fail = None then begin
          incr checks;
          let expected =
            Golden.dot ~weights:set.Corners.weights.(g) ~inputs:xs
          in
          if got <> expected then
            fail :=
              Some { set_name = set.Corners.name; word = g; expected; got }
        end)
      results.(l);
    (!checks, !fail)

  (* [run m chunk] — load, run and judge one chunk on a fresh
     simulator, every lane starting from reset. Lanes are judged in job
     order up to the first divergence: the comparisons made, and the
     failing job with its failure. *)
  let run ?bug (m : Macro_rtl.t) (chunk : lane_job array) :
      int * (lane_job * failure) option =
    let sim = load_chunk m chunk in
    let results =
      run_mac ?bug m sim
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
end

module Reference = Chunk (Slice.Scalar)

(* Shrink a lane divergence to its minimal reproducer: the same chunk
   code over {!Slice.Scalar} on a one-job chunk — one fresh {!Sim}, one
   transaction, which a debug session replays without the lane
   machinery. If the re-run confirms, its failure record wins; a
   divergence only [engine] shows (a lane-equivalence bug in the engine
   itself) is reported with an explicit marker instead of being
   hidden. *)
let reproduce ?bug ~engine (m : Macro_rtl.t) (job : lane_job) (f : failure) =
  match Reference.run ?bug m [| job |] with
  | _, Some (_, f) -> f
  | _, None ->
      { f with set_name = Printf.sprintf "%s (%s-only)" f.set_name engine }

(** [check_macro ?engine ?bug ~seed ~random_batches m] — drive a built
    macro through every directed corner set plus [random_batches] random
    sets, comparing every transaction against {!Golden}. With MCR > 1
    each set is additionally checked on the last weight copy (with
    row-rotated weights), covering the copy-select mux. The engine's
    slice ({!Engine.slice}) packs the transactions as lanes, 63 at a
    time for the default [`Packed], one at a time for [`Scalar]; every
    job starts from reset. Lanes are judged in set order and the first
    divergence wins, so the outcome is independent of the lane width. *)
let check_macro ?(engine : Engine.t = `Packed) ?bug ~seed ~random_batches
    (m : Macro_rtl.t) : outcome =
  let module E = (val Engine.slice engine) in
  let module C = Chunk (E) in
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
                { set with Corners.weights = rotate_rows set.Corners.weights };
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
      match C.run ?bug m (Array.sub jobs pos n) with
      | c, None -> chunks (pos + n) (checks + c)
      | c, Some (job, f) ->
          let f = reproduce ?bug ~engine:E.name m job f in
          let f =
            if job.copy = 0 then f
            else
              let set_name = Printf.sprintf "%s@copy%d" f.set_name job.copy in
              { f with set_name }
          in
          { checks = checks + c; failure = Some f }
  in
  chunks 0 0

(** [check_spec ?engine ?bug ?random_batches ~seed ctx spec] — compile
    the spec's initial configuration over the context's library and
    check it differentially. This is the unit of work a fuzz campaign
    fans out over the pool; with the default packed engine each unit
    settles its whole vector batch in one lane-parallel pass. *)
let check_spec ?engine ?bug ?(random_batches = 2) ~seed (ctx : Ctx.t)
    (spec : Spec.t) : outcome =
  let m = Macro_rtl.build (Ctx.lib ctx) (Spec.initial_config spec) in
  check_macro ?engine ?bug ~seed ~random_batches m

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
