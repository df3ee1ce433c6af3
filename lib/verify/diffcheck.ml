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

let is_fp (m : Macro_rtl.t) =
  match m.Macro_rtl.cfg.Macro_rtl.input_prec with
  | Precision.Fp _ -> true
  | Precision.Int _ -> false

(* One full MAC transaction, optionally with an injected fault. Mirrors
   the sign-off schedule in {!Testbench.run_mac}; kept separate so a
   fault never leaks into the production bench. *)
let run_mac ?bug (m : Macro_rtl.t) sim ~(inputs : int array) =
  let db = m.Macro_rtl.db in
  Testbench.present_inputs m sim inputs;
  Testbench.set_controls m sim ~load:false ~sa_en:false ~sa_clr:false
    ~sa_neg:false;
  Testbench.set_align_en m sim true;
  for _ = 1 to m.Macro_rtl.align_lat do
    Sim.step sim
  done;
  Testbench.set_align_en m sim false;
  Testbench.set_controls m sim ~load:true ~sa_en:false ~sa_clr:false
    ~sa_neg:false;
  Sim.step sim;
  let last = m.Macro_rtl.tree_lat + db - 1 in
  for k = 0 to last do
    let first = k = m.Macro_rtl.tree_lat in
    let sign_cycle =
      if m.Macro_rtl.neg_on_last then k = last else first
    in
    let sa_neg =
      sign_cycle && db > 1 && bug <> Some Skip_sign_cycle
    in
    Testbench.set_controls m sim ~load:false
      ~sa_en:(k >= m.Macro_rtl.tree_lat)
      ~sa_clr:first ~sa_neg;
    Sim.step sim
  done;
  Testbench.set_controls m sim ~load:false ~sa_en:false ~sa_clr:false
    ~sa_neg:false;
  let post =
    match bug with
    | Some Retime_early_sample -> max 0 (m.Macro_rtl.post_lat - 1)
    | _ -> m.Macro_rtl.post_lat
  in
  for _ = 1 to post do
    Sim.step sim
  done;
  Sim.eval sim;
  Testbench.read_results m sim ~shift:0

(* Expected datapath values of the raw inputs (identity for INT, aligner
   for FP) plus the expected group exponent. *)
let datapath_view (m : Macro_rtl.t) inputs =
  match m.Macro_rtl.cfg.Macro_rtl.input_prec with
  | Precision.Int _ -> (inputs, None)
  | Precision.Fp fmt ->
      let a = Align.align fmt inputs in
      (a.Align.values, Some a.Align.group_exp)

(* Run one vector set with the given weights already loaded; first
   divergence wins. *)
let check_set ?bug (m : Macro_rtl.t) sim (set : Corners.vector_set) :
    int * failure option =
  let results = run_mac ?bug m sim ~inputs:set.Corners.inputs in
  let xs, exp_expected = datapath_view m set.Corners.inputs in
  let checks = ref 0 in
  let fail = ref None in
  (match exp_expected with
  | Some e ->
      incr checks;
      let got = Sim.read_bus sim "group_exp" in
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
    results;
  (!checks, !fail)

(* rotate rows so each weight copy stores a distinguishable pattern *)
let rotate_rows (weights : int array array) =
  Array.map
    (fun per_row ->
      let n = Array.length per_row in
      Array.init n (fun r -> per_row.((r + 1) mod n)))
    weights

(* Scalar engine: one simulator, one transaction per set, in order. *)
let check_macro_scalar ?bug ~seed ~random_batches (m : Macro_rtl.t) :
    outcome =
  let sim = Sim.create m.Macro_rtl.design in
  let mcr = m.Macro_rtl.cfg.Macro_rtl.mcr in
  if mcr > 1 then Sim.set_bus sim "copy_sel" 0;
  let rng = Rng.create seed in
  let sets =
    Corners.sets m @ Corners.random_sets rng m ~batches:random_batches
  in
  let checks = ref 0 in
  let run_on ~copy set =
    let weights =
      if copy = 0 then set.Corners.weights
      else rotate_rows set.Corners.weights
    in
    Testbench.load_weights m sim ~copy weights;
    if mcr > 1 then Sim.set_bus sim "copy_sel" copy;
    let c, f = check_set ?bug m sim { set with Corners.weights } in
    checks := !checks + c;
    f
  in
  let rec loop = function
    | [] -> { checks = !checks; failure = None }
    | set :: rest -> (
        match run_on ~copy:0 set with
        | Some f -> { checks = !checks; failure = Some f }
        | None ->
            if mcr > 1 then
              match run_on ~copy:(mcr - 1) set with
              | Some f ->
                  {
                    checks = !checks;
                    failure =
                      Some
                        {
                          f with
                          set_name =
                            Printf.sprintf "%s@copy%d" f.set_name (mcr - 1);
                        };
                  }
              | None -> loop rest
            else loop rest)
  in
  loop sets

(* ---------------- bit-sliced engines ---------------- *)

(* One lane of a sliced batch: a vector set checked on one weight copy
   (weights already rotated for copy > 0). *)
type lane_job = { set : Corners.vector_set; copy : int }

(* Shrink a sliced-lane divergence back to a single scalar simulation:
   the minimal reproducer a debug session replays without the lane
   machinery. If the scalar rerun confirms, its failure record wins;
   a packed-only divergence (a lane-equivalence bug in the engine
   itself) is reported with an explicit marker instead of being hidden. *)
let scalar_reproduce ?bug (m : Macro_rtl.t) (job : lane_job)
    (packed : failure) : failure =
  let sim = Sim.create m.Macro_rtl.design in
  if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then
    Sim.set_bus sim "copy_sel" job.copy;
  Testbench.load_weights m sim ~copy:job.copy job.set.Corners.weights;
  match check_set ?bug m sim job.set with
  | _, Some f -> f
  | _, None -> { packed with set_name = packed.set_name ^ " (packed-only)" }

(** The bit-sliced differential engine, written once against {!Slice.S}:
    every (vector set × weight copy) job becomes one lane, so up to
    [E.max_lanes] differential transactions settle per netlist pass
    instead of one. The outcome mirrors the scalar engine's counting
    exactly — lanes are judged in set order and the first divergence
    wins, independent of the engine's lane width — and a failing lane is
    re-run through the scalar simulator for a minimal reproducer. *)
module Sliced_engine (E : Slice.S) = struct
  (* The sliced mirror of [run_mac]: the control schedule (and any
     injected fault) is broadcast to every lane, the inputs differ per
     lane. Returns results.(lane).(word). *)
  let run_mac ?bug (m : Macro_rtl.t) sim ~(inputs : int array array) =
    let module B = Testbench.Sliced (E) in
    let db = m.Macro_rtl.db in
    B.present_inputs_lanes m sim inputs;
    B.set_controls sim ~load:false ~sa_en:false ~sa_clr:false
      ~sa_neg:false;
    if is_fp m then E.set_bus sim "align_en" 1;
    for _ = 1 to m.Macro_rtl.align_lat do
      E.step sim
    done;
    if is_fp m then E.set_bus sim "align_en" 0;
    B.set_controls sim ~load:true ~sa_en:false ~sa_clr:false
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
      B.set_controls sim ~load:false
        ~sa_en:(k >= m.Macro_rtl.tree_lat)
        ~sa_clr:first ~sa_neg;
      E.step sim
    done;
    B.set_controls sim ~load:false ~sa_en:false ~sa_clr:false
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
    Array.init (E.lanes_of sim) (fun l ->
        Array.init m.Macro_rtl.words (fun g ->
            E.read_bus_signed_lane sim (Printf.sprintf "result%d" g) l))

  (* Load one chunk of lane jobs into a fresh sliced simulator: every
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

  (* Judge one finished lane with [check_set]'s exact counting
     semantics: exponent first (FP), then words in order, first
     divergence wins. *)
  let judge_lane (m : Macro_rtl.t) sim (results : int array array) l
      (job : lane_job) : int * failure option =
    let set = job.set in
    let xs, exp_expected = datapath_view m set.Corners.inputs in
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
    let checks = ref 0 in
    let failure = ref None in
    let pos = ref 0 in
    while !failure = None && !pos < total do
      let n = min E.max_lanes (total - !pos) in
      let chunk = Array.sub jobs !pos n in
      let sim = load_chunk m chunk in
      let results =
        run_mac ?bug m sim
          ~inputs:(Array.map (fun j -> j.set.Corners.inputs) chunk)
      in
      let l = ref 0 in
      while !failure = None && !l < n do
        let job = chunk.(!l) in
        let c, f = judge_lane m sim results !l job in
        checks := !checks + c;
        (match f with
        | None -> ()
        | Some f ->
            let f = scalar_reproduce ?bug m job f in
            let f =
              if job.copy = 0 then f
              else
                {
                  f with
                  set_name = Printf.sprintf "%s@copy%d" f.set_name job.copy;
                }
            in
            failure := Some f);
        incr l
      done;
      pos := !pos + n
    done;
    { checks = !checks; failure = !failure }
end

(** [check_macro ?engine ?bug ~seed ~random_batches m] — drive a built
    macro through every directed corner set plus [random_batches] random
    sets, comparing every transaction against {!Golden}. With MCR > 1
    each set is additionally checked on the last weight copy (with
    row-rotated weights), covering the copy-select mux. A batch engine
    ({!Sliced_engine}) packs the transactions as {!Sim_multiword} lanes,
    63 at a time for the default [`Packed]; [`Scalar] runs them one by
    one (the reference the conformance suite pins the sliced engine
    against). *)
let check_macro ?(engine : Engine.t = `Packed) ?bug ~seed ~random_batches
    (m : Macro_rtl.t) : outcome =
  match engine with
  | `Scalar -> check_macro_scalar ?bug ~seed ~random_batches m
  | #Engine.batch as e ->
      let module E = (val Engine.slice e) in
      let module D = Sliced_engine (E) in
      D.check_macro ?bug ~seed ~random_batches m

(** [check_spec ?engine ?bug ?random_batches ~seed ctx spec] — compile
    the spec's initial configuration over the context's library and
    check it differentially. This is the unit of work a fuzz campaign
    fans out over the pool; the engine defaults to the context's
    verification engine, and with the packed engine each unit settles
    its whole vector batch in one lane-parallel pass. *)
let check_spec ?engine ?bug ?(random_batches = 2) ~seed (ctx : Ctx.t)
    (spec : Spec.t) : outcome =
  let engine =
    match engine with Some e -> e | None -> Ctx.verify_engine ctx
  in
  let m = Macro_rtl.build (Ctx.lib ctx) (Spec.initial_config spec) in
  check_macro ~engine ?bug ~seed ~random_batches m

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
