(** Fuzz-campaign orchestration: generate → check → shrink → report.

    A campaign generates [count] stratified specs ({!Specgen}), checks
    each differentially against {!Golden} ({!Diffcheck}) with the work
    fanned out over {!Pool}, shrinks every failure to a minimal
    reproducer, and (for clean campaigns) runs the metamorphic
    move-preservation and LUT-monotonicity properties on a stratified
    subset. The report is bit-for-bit identical for any job count:
    per-spec seeds are derived from the campaign seed and the spec index
    alone, the pool preserves order, and shrinking is sequential over the
    ordered failure list. *)

type failure_report = {
  index : int;  (** spec index within the campaign *)
  original : Spec.t;
  shrunk : Spec.t;  (** minimal reproducer *)
  shrink_steps : int;
  detail : string;  (** first divergence on the original spec *)
  diag : Diag.t;  (** the divergence as a structured stage diagnostic *)
}

type property = { name : string; passed : int; failed : int }

type report = {
  seed : int;
  specs : int;  (** fuzzed specs compiled and checked *)
  checks : int;  (** total word/exponent comparisons *)
  failures : failure_report list;
  properties : property list;  (** metamorphic + monotonicity results *)
}

(** The campaign seed [run] and [syndcim verify] use when given none. *)
let default_seed = 0xC1A0

let spec_seed ~seed i = seed lxor ((i + 1) * 0x5_1C1D)

(* aggregate per-name results into pass/fail counters, input order kept *)
let tally (results : Metamorph.result list) : property list =
  let order = ref [] in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (r : Metamorph.result) ->
      let p =
        match Hashtbl.find_opt table r.Metamorph.name with
        | Some p -> p
        | None ->
            order := r.Metamorph.name :: !order;
            { name = r.Metamorph.name; passed = 0; failed = 0 }
      in
      let p =
        if r.Metamorph.ok then { p with passed = p.passed + 1 }
        else { p with failed = p.failed + 1 }
      in
      Hashtbl.replace table r.Metamorph.name p)
    results;
  List.rev_map (Hashtbl.find table) !order

(** [run ?jobs ?bug ?random_batches ?meta_stride ?seed ~count ctx] —
    the full campaign over the context's library. [bug] injects a
    datapath fault into every differential check (the self-test mode:
    the campaign must then report failures and shrink them);
    metamorphic properties only run on clean campaigns, on every
    [meta_stride]-th spec. The job count defaults to the context's, the
    campaign seed to {!default_seed}. *)
let run ?jobs ?bug ?(random_batches = 2) ?(meta_stride = 25)
    ?(seed = default_seed) ~count (ctx : Ctx.t) : report =
  let jobs = match jobs with Some j -> Some j | None -> Ctx.jobs ctx in
  let specs = Specgen.generate ~seed ~count in
  let indexed = List.mapi (fun i s -> (i, s)) specs in
  let outcomes =
    Pool.parallel_map ?jobs
      (fun (i, s) ->
        (i, s, Diffcheck.check_spec ?bug ~random_batches
                 ~seed:(spec_seed ~seed i) ctx s))
      indexed
  in
  let checks =
    List.fold_left
      (fun acc (_, _, (o : Diffcheck.outcome)) -> acc + o.Diffcheck.checks)
      0 outcomes
  in
  (* shrink failures sequentially, in campaign order, so the reproducer
     list is deterministic for any job count *)
  let failures =
    List.filter_map
      (fun (i, s, (o : Diffcheck.outcome)) ->
        match o.Diffcheck.failure with
        | None -> None
        | Some f ->
            let fails =
              Diffcheck.fails ?bug ~seed:(spec_seed ~seed i) ctx
            in
            let shrunk, shrink_steps =
              Specgen.shrink_to_minimal ~fails s
            in
            Some
              {
                index = i;
                original = s;
                shrunk;
                shrink_steps;
                detail = Diffcheck.describe_failure f;
                diag = Diffcheck.diag_of_failure ~stage:"campaign" s f;
              })
      outcomes
  in
  let properties =
    if bug <> None then []
    else begin
      let meta_specs =
        List.filter_map
          (fun (i, s) -> if i mod meta_stride = 0 then Some (i, s) else None)
          indexed
      in
      let moves =
        Pool.parallel_map ?jobs
          (fun (i, s) ->
            Metamorph.check_moves ~jobs:1 ~seed:(spec_seed ~seed i) ctx s
            @ [ Metamorph.check_equiv_pair ~seed:(spec_seed ~seed i) ctx s ])
          meta_specs
        |> List.concat
      in
      tally (moves @ Metamorph.lut_monotonicity ctx)
    end
  in
  { seed; specs = count; checks; failures; properties }

let clean (r : report) =
  r.failures = []
  && List.for_all (fun p -> p.failed = 0) r.properties

(** [diagnostics r] — every campaign finding as a structured diagnostic:
    one per differential failure (with the shrunk reproducer in the
    payload), one per failing metamorphic property. The CLI and tests
    assert on these instead of string-matching the human report. *)
let diagnostics (r : report) : Diag.t list =
  let failure_diags =
    List.map
      (fun f ->
        {
          f.diag with
          Diag.payload =
            f.diag.Diag.payload
            @ [
                ("spec_index", string_of_int f.index);
                ("shrunk", Spec.describe f.shrunk);
                ("shrink_steps", string_of_int f.shrink_steps);
              ];
        })
      r.failures
  in
  let property_diags =
    List.filter_map
      (fun p ->
        if p.failed = 0 then None
        else
          Some
            (Diag.error ~stage:"campaign"
               ~payload:
                 [
                   ("property", p.name);
                   ("passed", string_of_int p.passed);
                   ("failed", string_of_int p.failed);
                 ]
               (Printf.sprintf "metamorphic property %S failed %d of %d"
                  p.name p.failed (p.passed + p.failed))))
      r.properties
  in
  failure_diags @ property_diags

(** [describe r] — the human report: campaign counters, one line per
    property with pass/fail counts, and every failure with its shrunk
    minimal reproducer. *)
let describe (r : report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "fuzz campaign: seed 0x%X, %d specs compiled, %d differential \
        checks, %d failure(s)\n"
       r.seed r.specs r.checks (List.length r.failures));
  if r.properties <> [] then begin
    Buffer.add_string b "properties:\n";
    List.iter
      (fun p ->
        Buffer.add_string b
          (Printf.sprintf "  %-28s %4d passed %4d failed %s\n" p.name
             p.passed p.failed
             (if p.failed = 0 then "ok" else "FAIL")))
      r.properties
  end;
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf
           "failure at spec #%d: %s\n  spec:   %s\n  shrunk: %s (%d \
            step(s))\n"
           f.index f.detail
           (Spec.describe f.original)
           (Spec.describe f.shrunk)
           f.shrink_steps))
    r.failures;
  Buffer.add_string b
    (if clean r then "verdict: PASS\n" else "verdict: FAIL\n");
  Buffer.contents b
