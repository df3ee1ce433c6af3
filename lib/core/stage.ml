(** The pipeline's pass abstraction: a named, typed transformation from
    one artifact to the next, returning [('b, Diag.t) result].

    A stage's run function also returns the {!Trace.row} of what the
    stage measured about itself (cells touched, critical path in/out,
    cache hits, ECO iterations), built with {!meta}. {!execute} wraps
    the run with wall-clock timing, fills in the row's stage name,
    status and wall clock, records it in the {!Trace} (successful or
    not), and supports fault injection by stage name so the failure path
    can be exercised end-to-end without a genuinely broken netlist. *)

(** [meta ?cells ... ()] — a {!Trace.row} carrying a stage's own
    measurements. The stage name, status and wall clock are left blank
    for {!execute} to fill in. *)
let meta ?cells ?crit_in_ps ?crit_out_ps ?cache_hits ?cache_misses ?eco_iters
    ?boost ?(note = "") () : Trace.row =
  { Trace.stage = ""; ok = true; wall_ms = 0.0; cells; crit_in_ps;
    crit_out_ps; cache_hits; cache_misses; eco_iters; boost; note }

type ('a, 'b) t = {
  name : string;
  run : 'a -> ('b * Trace.row, Diag.t) Stdlib.result;
}

let v name run = { name; run }
let name (s : ('a, 'b) t) = s.name

(** [execute ?trace ?inject stage input] — run the stage, time it, and
    append one row to [trace]. With [inject = Some stage.name] the run is
    skipped and the stage fails with an "injected failure" diagnostic —
    the hook the CLI's [--inject-fail] and the failure-path tests use. *)
let execute ?trace ?inject (s : ('a, 'b) t) (x : 'a) :
    ('b, Diag.t) Stdlib.result =
  let injected =
    match inject with Some n when n = s.name -> true | _ -> false
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    if injected then
      Error
        (Diag.error ~stage:s.name
           ~payload:[ ("injected", "true") ]
           "injected failure (test hook)")
    else s.run x
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (* Per-stage registry instruments, keyed by stage name. Run/failure
     counts are jobs- and engine-invariant, so they are deterministic;
     the latency histogram is too, because only its observation count
     (not the wall-clock buckets) enters the fingerprint. *)
  Metrics.incr (Metrics.counter ("stage." ^ s.name ^ ".runs"));
  (match outcome with
  | Error _ -> Metrics.incr (Metrics.counter ("stage." ^ s.name ^ ".fail"))
  | Ok _ -> ());
  Metrics.observe (Metrics.histogram ("stage." ^ s.name ^ ".wall_ms")) wall_ms;
  (match trace with
  | None -> ()
  | Some tr ->
      let row =
        match outcome with
        | Ok (_, m) -> m
        | Error d -> meta ~note:(Diag.to_string d) ()
      in
      Trace.add tr
        { row with Trace.stage = s.name; ok = Result.is_ok outcome; wall_ms });
  Stdlib.Result.map fst outcome
