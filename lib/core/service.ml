(** The warm compile service: one process-resident facade over a
    {!Ctx.t} that serves repeated compile and batch requests from a
    warmed world — the library characterized once, the shared SCL memo
    growing monotonically, the persistent compile cache held open — with
    cumulative hit/miss accounting and a per-request instrumentation
    trace.

    This is the first serving-shaped API: where a CLI invocation
    rebuilds the world per call, a service constructed once keeps it hot,
    so request latency drops from "characterize + compile" to "compile"
    (and to a cache lookup when the compile cache already holds the
    spec). Two tenants — or two corners — are two services over two
    contexts; nothing is global.

    Ownership follows {!Ctx}: the service never hands out netlists from
    a cache (ECO mutates them), and every request gets its own private
    {!Trace.t}, so concurrent requests never share a mutable sink. The
    cumulative counts are {!Metrics.scoped} views of the [service.*]
    registry instruments: each outcome is recorded once, lands in both
    this service's view and the process-wide registry, and — like every
    record operation — is dropped while {!Metrics.set_enabled} is
    [false]. Request ids keep their own mutex-guarded sequence, so they
    stay unique with metrics off. *)

type stats = {
  requests : int;  (** compile requests served (batch items included) *)
  cache_hits : int;  (** served from the persistent compile cache *)
  compiled : int;  (** ran the full pipeline (miss/corrupt/uncached) *)
  failures : int;  (** requests that returned a diagnostic *)
  wall_s : float;  (** cumulative request wall clock *)
}

(* The latency histogram is deterministic because only its observation
   count (one per request) enters the fingerprint. *)
let m_requests = Metrics.counter "service.requests"
let m_cache_hits = Metrics.counter "service.cache_hits"
let m_compiled = Metrics.counter "service.compiled"
let m_failures = Metrics.counter "service.failures"
let m_request_ms = Metrics.histogram "service.request_ms"

type t = {
  ctx : Ctx.t;
  requests : Metrics.counter;
  cache_hits : Metrics.counter;
  compiled : Metrics.counter;
  failures : Metrics.counter;
  request_ms : Metrics.histogram;
  lock : Mutex.t;  (** guards [wall_s] and [next_id] *)
  mutable wall_s : float;
  mutable next_id : int;
}

(** One served compile request: its outcome (a {!Pipeline.summary} from
    {!compile}, a full {!Pipeline.run} from {!compile_artifact}) plus the
    request's own stage trace (cache row included on cached paths). *)
type 'a request = {
  id : int;  (** monotonically increasing per service *)
  outcome : ('a, Diag.t) Stdlib.result;
  trace : Trace.t;  (** this request's private instrumentation rows *)
  wall_s : float;
}

(** [create ctx] — a service over [ctx] and its compile cache, with
    zeroed counters. A persisted SCL LUT is the context owner's to merge
    ({!Ctx.load_scl}), once, before the first request: the service never
    reads the file. *)
let create (ctx : Ctx.t) : t =
  {
    ctx;
    requests = Metrics.scoped m_requests;
    cache_hits = Metrics.scoped m_cache_hits;
    compiled = Metrics.scoped m_compiled;
    failures = Metrics.scoped m_failures;
    request_ms = Metrics.scoped_histogram m_request_ms;
    lock = Mutex.create ();
    wall_s = 0.0;
    next_id = 0;
  }

let ctx t = t.ctx

let account t ~(outcome : (Pipeline.summary, Diag.t) Stdlib.result) ~wall_s
    =
  Metrics.incr t.requests;
  Metrics.observe t.request_ms (wall_s *. 1e3);
  Mutex.protect t.lock (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      t.wall_s <- t.wall_s +. wall_s;
      (match outcome with
      | Ok s -> (
          match s.Pipeline.sum_cache with
          | Pipeline.Cache_hit -> Metrics.incr t.cache_hits
          | Pipeline.Cache_miss | Pipeline.Cache_corrupt _
          | Pipeline.Cache_off ->
              Metrics.incr t.compiled)
      | Error _ -> Metrics.incr t.failures);
      id)

(* One timed, accounted request: [run] compiles into the request's
   private trace and [summary] reduces its result for the counters. *)
let serve t ~summary run : 'a request =
  let trace = Trace.create () in
  let t0 = Unix.gettimeofday () in
  let outcome = run trace in
  let wall_s = Unix.gettimeofday () -. t0 in
  let id = account t ~outcome:(Result.map summary outcome) ~wall_s in
  { id; outcome; trace; wall_s }

(** [compile t spec] — serve one metrics-level compilation through the
    warm context and the compile cache. Every request gets a fresh
    private trace; failures are accounted and returned — a bad spec
    never takes the service down. *)
let compile (t : t) (spec : Spec.t) : Pipeline.summary request =
  serve t ~summary:Fun.id (fun trace -> Pipeline.run_cached ~trace t.ctx spec)

(** Full-artifact variant of {!compile}, for callers that need the
    netlist and layout (the CLI's [compile] subcommand, artifact
    export). Never served from the compile cache — artifacts cannot be
    reconstructed from a metrics-level entry — but still warms and
    reuses the shared SCL memo, and still accounts the request. [inject]
    is {!Pipeline.run}'s failure hook. *)
let compile_artifact ?inject (t : t) (spec : Spec.t) : Pipeline.run request =
  serve t ~summary:Pipeline.summary_of_run (fun trace ->
      Pipeline.run ?inject ~trace t.ctx spec)

(** [batch ?trace t specs] — fan a whole manifest out over the domain
    pool through the warm context, and fold the per-item cache outcomes
    into the service's cumulative counters. The returned {!Batch.result}
    is exactly what {!Batch.run} produces — manifest order, per-spec
    isolation, deterministic PPA rendering. *)
let batch ?trace (t : t) (specs : Spec.t list) : Batch.result =
  let t0 = Unix.gettimeofday () in
  let r = Batch.run ?trace t.ctx specs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let n = List.length r.Batch.items in
  Metrics.add t.requests n;
  Metrics.add t.cache_hits r.Batch.hits;
  Metrics.add t.compiled (r.Batch.misses + r.Batch.corrupt + r.Batch.uncached);
  Metrics.add t.failures r.Batch.failed;
  List.iter
    (fun (it : Batch.item) -> Metrics.observe t.request_ms (it.Batch.wall_s *. 1e3))
    r.Batch.items;
  Mutex.protect t.lock (fun () ->
      t.next_id <- t.next_id + n;
      t.wall_s <- t.wall_s +. wall_s);
  r

let stats (t : t) : stats =
  {
    requests = Metrics.counter_value t.requests;
    cache_hits = Metrics.counter_value t.cache_hits;
    compiled = Metrics.counter_value t.compiled;
    failures = Metrics.counter_value t.failures;
    wall_s = Mutex.protect t.lock (fun () -> t.wall_s);
  }

(** [describe t] — this service's cumulative counters as one line,
    including its own request-latency p50/p99 (never another service's,
    and unaffected by {!Metrics.reset}). *)
let describe (t : t) : string =
  let s = stats t in
  let latency =
    if Metrics.histogram_count t.request_ms = 0 then ""
    else
      Printf.sprintf "; req p50 %.1f ms / p99 %.1f ms"
        (Metrics.quantile t.request_ms 0.5)
        (Metrics.quantile t.request_ms 0.99)
  in
  Printf.sprintf
    "service: %d request(s) — %d cache hit(s), %d compiled, %d failed, \
     %.2f s; scl memo: %s%s"
    s.requests s.cache_hits s.compiled s.failures s.wall_s
    (Scl.describe (Ctx.scl t.ctx)) latency

(** [metrics _t] — the process-wide metrics registry as the one-page
    human table ({!Metrics.render}): the serving-side answer to "where
    did this service spend its time". *)
let metrics (_ : t) : string = Metrics.render ()

(** [metrics_json _t] — the registry as JSON ({!Metrics.to_json}), the
    same document [--metrics-out] writes. *)
let metrics_json (_ : t) : string = Metrics.to_json ()

(** [close t] — persist the warmed SCL LUT if the context names a CSV
    ({!Ctx.save_scl}); the compile cache needs no closing (entries are
    written atomically as they are produced). Returns the entry count
    written, if persistence is configured. *)
let close (t : t) : (int option, Diag.t) Stdlib.result = Ctx.save_scl t.ctx
