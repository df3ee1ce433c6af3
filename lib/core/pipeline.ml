(** The staged compilation pipeline (paper Fig. 2), as composable passes.

    The flow is five typed stages threaded by {!run}. An attempt runs the
    first two; the backend decides whether the attempt ships, and only
    the attempt that ships runs the last three:

    {v
      Spec.t --search--> search_art --backend--> backend_art
        Retry boost: run the next attempt at the tighter clock
        Ship layout: --signoff_verify--> search_art
                     --power--> Power.report --metrics--> verdict
    v}

    1. [search]: the multi-spec-oriented searcher picks the subcircuit
       configuration and pipeline structure (Algorithm 1), evaluating
       candidates through a per-attempt memoizing {!Eval_cache} that
       draws its netlists from a per-compile {!Eval_cache.netlists}
       table;
    2. [backend]: SDP placement, routing estimate and wire-aware timing
       re-closure (the ECO sizing loop, every iteration recorded), then
       the retry policy ({!next_boost}): a routed miss whose search closed
       pre-layout discards the attempt and re-runs search and backend
       against a tightened internal clock. The layout that ships is
       checked by DRC and LVS; a discarded one is not;
    3. [signoff_verify]: functional sign-off — the shipped netlist is
       simulated against the golden MAC over randomized batches; the
       compiler refuses to emit a macro that miscomputes;
    4. [power]: post-layout power at the spec's operating point;
    5. [metrics]: the reported PPA and the timing verdict.

    Verification reads only the netlist's function and the ECO only
    resizes cells, so running [signoff_verify] after [backend] reports
    what running it before would.

    Each stage returns [('a, Diag.t) result]; nothing inside the pipeline
    escapes by exception. Every stage execution appends an instrumented
    {!Trace} row (wall-clock, cells touched, crit in/out, cache hit/miss,
    ECO iterations, retry boost), so [syndcim compile --trace] shows not
    just what each stage produced but {e why} a retry boost happened. *)

let ( let* ) = Diag.( let* )

(* ------------------------------------------------------------------ *)
(* Stage names and artifacts                                           *)
(* ------------------------------------------------------------------ *)

let stage_search = "search"
let stage_verify = "signoff_verify"
let stage_backend = "backend"
let stage_power = "power"
let stage_metrics = "metrics"

(** In execution order. *)
let stage_names =
  [ stage_search; stage_backend; stage_verify; stage_power; stage_metrics ]

type metrics = {
  crit_ps : float;  (** post-layout, nominal voltage *)
  fmax_ghz : float;  (** at the spec's operating voltage *)
  power_w : float;  (** post-layout, at the spec operating point *)
  area_mm2 : float;
  tops : float;  (** native precision, at the spec frequency *)
  tops_per_w : float;
  tops_per_mm2 : float;
  ops_norm : float;  (** 1b x 1b ops per native MAC, for normalization *)
}

(** Output of the search stage: the searcher's result plus the boost it
    ran under and its evaluation-cache counters. *)
type search_art = {
  search_spec : Spec.t;  (** the spec the result is reported against *)
  boost : float;  (** internal clock tightening (1.0 = none) *)
  search : Searcher.result;
  macro : Macro_rtl.t;
  cache : Eval_cache.stats;
}

(** One iteration of the backend's ECO re-closure loop. *)
type eco_iteration = {
  iter : int;
  crit_before_ps : float;  (** post-route critical path entering the pass *)
  crit_after_ps : float;  (** post-route critical path after re-placement *)
  upsized : int;  (** drive bumps the wire-aware sizing pass kept *)
  rolled_back : bool;
  reason : string;  (** why the loop continued, rolled back, or stopped *)
}

(** What the backend decided for its attempt. *)
type outcome =
  | Ship of Post_layout.t  (** the kept layout, DRC- and LVS-clean *)
  | Retry of float
      (** the attempt is discarded, its layout never checked: the boost
          of the next attempt *)

(** Output of the backend stage: its decision plus the full ECO
    iteration record. *)
type backend_art = {
  outcome : outcome;
  eco : eco_iteration list;  (** in iteration order *)
  eco_capped : bool;  (** budget still missed when the iteration cap hit *)
  upsized : int;  (** total drive bumps of committed ECO passes *)
}

(** The metrics stage's verdict: reported PPA and the timing decision. *)
type verdict = { metrics : metrics; timing_closed : bool }

(** The final compilation artifact: every intermediate result, so
    reports, experiments and the CLI can drill in. *)
type artifact = {
  spec : Spec.t;
  search : Searcher.result;
  macro : Macro_rtl.t;
  signoff : Post_layout.t;
  power : Power.report;
  metrics : metrics;
  timing_closed : bool;  (** post-layout, at the spec's operating point *)
}

(** One attempt (a search and a backend, through the last three stages
    when it shipped), kept per retry boost. *)
type attempt = {
  attempt_boost : float;
  attempt_cache : Eval_cache.stats;
  attempt_eco : eco_iteration list;
  attempt_closed : bool;
}

type run = {
  artifact : artifact;
  attempts : attempt list;  (** in execution order; last one won *)
}

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

(** The retry-on-routing-miss loop: when the search met its pre-layout
    budget but routed wires ate the margin, re-run the pipeline with the
    internal clock tightened by another [boost_step]. A retry is
    scheduled while the {e failed} attempt's boost is below [max_boost]
    (see {!next_boost}), so the last retry may run one step past it:
    attempts run at ×1.0, ×1.12 and ×1.2544. [max_eco_iters] caps the
    backend's re-closure loop. Every compile signs off and retries; the
    one policy is {!default_policy}. *)
type policy = { max_boost : float; boost_step : float; max_eco_iters : int }

let default_policy = { max_boost = 1.2; boost_step = 1.12; max_eco_iters = 3 }

(** The placement style every compile uses; Ablation C's scattered
    placement goes through {!backend_once} instead. *)
let placement = Floorplan.Sdp

(** [next_boost policy ~boost ~timing_closed ~search_closed] — the retry
    decision for an attempt that ran at [boost]: [Some (boost *.
    boost_step)] when it missed timing post-layout although its search
    closed pre-layout and [boost < max_boost]; [None] otherwise. *)
let next_boost (p : policy) ~boost ~timing_closed ~search_closed =
  if (not timing_closed) && search_closed && boost < p.max_boost then
    Some (boost *. p.boost_step)
  else None

(** Workload assumptions for the reported power: the paper's measurement
    conditions (12.5 % input sparsity, 50 % weight sparsity). *)
let report_input_density = 0.125

let report_weight_density = 0.5
let report_macs = 8
let verify_batches = 2

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

(* Reject malformed specs with a spec-context diagnostic before any stage
   runs: they would trip an [invalid_arg] deep inside Macro_rtl/Mulmux,
   or (a NaN or infinite clock or voltage) compile to NaN PPA. *)
let validate (spec : Spec.t) : (unit, Diag.t) Stdlib.result =
  let err msg payload = Error (Diag.error ~stage:stage_search ~spec ~payload msg) in
  let is_pow2 n = n > 0 && n land (n - 1) = 0 in
  let wb = Precision.datapath_bits spec.Spec.weight_prec in
  (* NaN fails [x > 0.0] and infinity fails [is_finite]; either would
     walk the whole ladder and report NaN PPA *)
  let bad x = not (Float.is_finite x && x > 0.0) in
  let field name x = (name, Printf.sprintf "%g" x) in
  let clock_msg = "clock targets must be positive and finite" in
  if spec.Spec.rows <= 0 || spec.Spec.cols <= 0 then
    err "array dimensions must be positive"
      [
        ("rows", string_of_int spec.Spec.rows);
        ("cols", string_of_int spec.Spec.cols);
      ]
  else if not (is_pow2 spec.Spec.mcr) then
    err "MCR must be a positive power of two"
      [ ("mcr", string_of_int spec.Spec.mcr) ]
  else if spec.Spec.cols mod wb <> 0 then
    err "column count must be a multiple of the stored weight width"
      [
        ("cols", string_of_int spec.Spec.cols);
        ("weight_bits", string_of_int wb);
      ]
  else if bad spec.Spec.mac_freq_hz then
    err clock_msg [ field "mac_freq_hz" spec.Spec.mac_freq_hz ]
  else if bad spec.Spec.weight_update_freq_hz then
    err clock_msg
      [ field "weight_update_freq_hz" spec.Spec.weight_update_freq_hz ]
  else if bad spec.Spec.vdd then
    err "operating voltage must be positive and finite"
      [ field "vdd" spec.Spec.vdd ]
  else Ok ()

(** Stage 1 — MSO search under [boost]-tightened internal clock. With
    [netlists], candidates take their netlists from that table. The spec
    must have passed {!validate}, as {!run} and {!search_only} check. *)
let search_stage ?netlists lib scl ~boost : (Spec.t, search_art) Stage.t =
  Stage.v stage_search (fun (spec : Spec.t) ->
      let* search, cache =
        Diag.guard ~stage:stage_search ~spec (fun () ->
            let cache = Eval_cache.create ?netlists () in
            let search_spec =
              { spec with Spec.mac_freq_hz = spec.Spec.mac_freq_hz *. boost }
            in
            let r = Searcher.search ~cache lib scl search_spec in
            (r, Eval_cache.stats cache))
      in
      let macro = search.Searcher.final.Design_point.macro in
      let note =
        Printf.sprintf "%s, %d points, %d techniques%s"
          (if search.Searcher.timing_closed then "pre-layout closed"
           else "pre-layout NOT closed")
          (List.length search.Searcher.visited)
          (List.length search.Searcher.applied)
          (if boost > 1.0 then " [retry]" else "")
      in
      Ok
        ( { search_spec = spec; boost; search; macro; cache },
          Stage.meta
            ~cells:(Ir.n_insts macro.Macro_rtl.design)
            ~crit_out_ps:search.Searcher.final.Design_point.crit_ps
            ~cache_hits:cache.Eval_cache.hits
            ~cache_misses:cache.Eval_cache.misses ~boost ~note () ))

(** Stage 2 — back-end: place, route and re-close timing with the
    wire-aware ECO sizing loop, recording every iteration, then decide
    the attempt. The loop alternates upsizing with re-placement and
    extraction ({!Post_layout.place_route}) until the post-route critical
    path meets [budget_ps], stops improving, or [max_eco_iters] runs out.
    Sizing keeps only rounds that shorten the path it times (with the
    previous pass's wire loads), but the routed path need not follow: a
    resize can lengthen it once its larger cells are re-placed. The
    rollback guards against exactly this, restoring the drives of the
    last layout that the resize did not beat.

    [retry] maps the kept layout's routed critical path to the next
    attempt's boost and the reason (default: never). When it asks for
    one, the stage returns [Retry] and its row's note leads with the
    reason; otherwise the kept layout is checked by DRC and LVS
    ({!Post_layout.check}) and shipped. *)
let backend_stage ?spec ?(retry = fun (_ : float) -> None) lib ~style
    ~budget_ps ~max_eco_iters : (Macro_rtl.t, backend_art) Stage.t =
  Stage.v stage_backend (fun (macro : Macro_rtl.t) ->
      let* art =
        Diag.guard ~stage:stage_backend ?spec (fun () ->
            let design = macro.Macro_rtl.design in
            let iters = ref [] in
            let capped = ref false in
            let rec eco_loop iter (pass : Post_layout.routed) =
              let crit = pass.Post_layout.r_sta.Sta.crit_ps in
              if crit <= budget_ps then pass
              else if iter >= max_eco_iters then begin
                capped := max_eco_iters > 0;
                pass
              end
              else begin
                let snap = Sizing.snapshot design in
                let wire_cap =
                  Route.wire_cap_fn pass.Post_layout.r_routing
                    lib.Library.node
                in
                let sized =
                  Sizing.speed_up ~wire_cap design lib ~target_ps:budget_ps
                in
                let next = Post_layout.place_route lib macro ~style in
                let next_crit = next.Post_layout.r_sta.Sta.crit_ps in
                if next_crit >= crit -. 1.0 then begin
                  (* the resize did not help once re-placed: roll back *)
                  Sizing.restore design snap;
                  iters :=
                    {
                      iter;
                      crit_before_ps = crit;
                      crit_after_ps = next_crit;
                      upsized = sized.Sizing.upsized;
                      rolled_back = true;
                      reason =
                        Printf.sprintf
                          "re-placed crit %.1f -> %.1f ps (< 1 ps gain): \
                           %d upsizes rolled back"
                          crit next_crit sized.Sizing.upsized;
                    }
                    :: !iters;
                  (* the restored drives are the ones [pass] placed,
                     routed and timed: it is that run's result *)
                  pass
                end
                else begin
                  iters :=
                    {
                      iter;
                      crit_before_ps = crit;
                      crit_after_ps = next_crit;
                      upsized = sized.Sizing.upsized;
                      rolled_back = false;
                      reason =
                        Printf.sprintf
                          "crit %.1f -> %.1f ps after %d upsizes" crit
                          next_crit sized.Sizing.upsized;
                    }
                    :: !iters;
                  eco_loop (iter + 1) next
                end
              end
            in
            let first = Post_layout.place_route lib macro ~style in
            let kept = eco_loop 0 first in
            let crit = kept.Post_layout.r_sta.Sta.crit_ps in
            let decision = retry crit in
            let outcome =
              match decision with
              | Some (b, _) -> Retry b
              | None -> Ship (Post_layout.check lib kept)
            in
            let eco = List.rev !iters in
            let upsized =
              List.fold_left
                (fun acc (i : eco_iteration) ->
                  if i.rolled_back then acc else acc + i.upsized)
                0 eco
            in
            ( { outcome; eco; eco_capped = !capped; upsized },
              first.Post_layout.r_sta.Sta.crit_ps,
              crit,
              Option.map snd decision ))
      in
      let ba, first_crit, crit, why_retry = art in
      let note =
        (* the rollback suffix stays last: trace readers parse it *)
        let base =
          Printf.sprintf "budget %.1f ps%s" budget_ps
            (if ba.eco_capped then
               Printf.sprintf ", ECO capped at %d iteration(s)" max_eco_iters
             else "")
        in
        let base =
          match List.rev ba.eco with
          | last :: _ when last.rolled_back -> base ^ ", last ECO rolled back"
          | _ -> base
        in
        match why_retry with Some why -> why ^ "; " ^ base | None -> base
      in
      Ok
        ( ba,
          Stage.meta ~cells:ba.upsized ~crit_in_ps:first_crit ~crit_out_ps:crit
            ~eco_iters:(List.length ba.eco) ~note () ))

(** Stage 3 — functional sign-off against the golden MAC. The packed
    engine settles each weight copy's MAC batch as {!Sim_sliced}
    lanes; any failing lane is shrunk back to one scalar transaction. *)
let verify_stage : (search_art, search_art) Stage.t =
  Stage.v stage_verify (fun (sa : search_art) ->
      let* () =
        Diag.guard ~stage:stage_verify ~spec:sa.search_spec (fun () ->
            Testbench.verify sa.macro ~seed:0xACC ~batches:verify_batches)
      in
      let copies = sa.macro.Macro_rtl.cfg.Macro_rtl.mcr in
      Ok
        ( sa,
          Stage.meta
            ~cells:(Ir.n_insts sa.macro.Macro_rtl.design)
            ~note:
              (Printf.sprintf
                 "%d random MACs vs golden (%d weight copies, packed engine)"
                 (copies * verify_batches) copies)
            () ))

(** Stage 4 — post-layout power at the spec's operating point. *)
let power_stage lib ~(spec : Spec.t) :
    (Macro_rtl.t * Post_layout.t, Power.report) Stage.t =
  Stage.v stage_power (fun ((macro : Macro_rtl.t), signoff) ->
      let* power =
        Diag.guard ~stage:stage_power ~spec (fun () ->
            Post_layout.power lib macro signoff
              ~freq_hz:spec.Spec.mac_freq_hz ~vdd:spec.Spec.vdd
              ~input_density:report_input_density
              ~weight_density:report_weight_density ~macs:report_macs)
      in
      Ok
        ( power,
          Stage.meta
            ~cells:(Ir.n_insts macro.Macro_rtl.design)
            ~note:
              (Printf.sprintf "%.2f mW @ %.0f MHz (%.1f %%/%.0f %% density)"
                 (power.Power.total_w *. 1e3)
                 (spec.Spec.mac_freq_hz /. 1e6)
                 (report_input_density *. 100.)
                 (report_weight_density *. 100.))
            () ))

(* A routed critical path's fmax at the spec's voltage, and whether it
   meets the spec's clock: shared by the backend's retry decision and the
   metrics verdict, so the two agree bit for bit. *)
let fmax_ghz node (spec : Spec.t) crit_ps =
  Voltage.fmax node ~crit_path_ps:crit_ps ~vdd:spec.Spec.vdd /. 1e9

let meets_clock (spec : Spec.t) fmax_ghz =
  fmax_ghz *. 1e9 >= spec.Spec.mac_freq_hz *. 0.999

let retry_note (spec : Spec.t) ~fmax_ghz boost =
  Printf.sprintf
    "post-route miss (fmax %.2f GHz < %.0f MHz) but search closed \
     pre-layout: retry at boost x%.2f"
    fmax_ghz
    (spec.Spec.mac_freq_hz /. 1e6)
    boost

(** [retry_decision lib sa crit_ps] — {!next_boost} under
    {!default_policy} for attempt [sa] once its ECO loop kept a layout
    with routed critical path [crit_ps]: the next attempt's boost and the
    reason, or [None] when [sa] ships. The backend's [retry] argument in
    {!run}. *)
let retry_decision lib (sa : search_art) crit_ps =
  let spec = sa.search_spec in
  let fmax_ghz = fmax_ghz lib.Library.node spec crit_ps in
  next_boost default_policy ~boost:sa.boost
    ~timing_closed:(meets_clock spec fmax_ghz)
    ~search_closed:sa.search.Searcher.timing_closed
  |> Option.map (fun b -> (b, retry_note spec ~fmax_ghz b))

let compute_metrics (spec : Spec.t) (m : Macro_rtl.t)
    (signoff : Post_layout.t) (power : Power.report) node =
  let crit_ps = signoff.Post_layout.sta.Sta.crit_ps in
  let tops = Design_point.throughput_tops m ~freq_hz:spec.Spec.mac_freq_hz in
  let area_mm2 = signoff.Post_layout.area_mm2 in
  let ops_norm = float_of_int (m.Macro_rtl.db * m.Macro_rtl.wb) in
  {
    crit_ps;
    fmax_ghz = fmax_ghz node spec crit_ps;
    power_w = power.Power.total_w;
    area_mm2;
    tops;
    tops_per_w = tops /. power.Power.total_w;
    tops_per_mm2 = tops /. area_mm2;
    ops_norm;
  }

(** Stage 5 — reported PPA and the timing verdict. The retry decision
    is the backend's ({!retry_decision}); a miss measured here is one
    the policy ships, and the note says why. *)
let metrics_stage lib :
    (search_art * Post_layout.t * Power.report, verdict) Stage.t =
  Stage.v stage_metrics
    (fun ((sa : search_art), (signoff : Post_layout.t), (power : Power.report))
    ->
      let spec = sa.search_spec in
      let* metrics =
        Diag.guard ~stage:stage_metrics ~spec (fun () ->
            compute_metrics spec sa.macro signoff power lib.Library.node)
      in
      let timing_closed = meets_clock spec metrics.fmax_ghz in
      let note =
        if timing_closed then
          Printf.sprintf "timing closed: fmax %.2f GHz >= %.0f MHz"
            metrics.fmax_ghz
            (spec.Spec.mac_freq_hz /. 1e6)
        else
          Printf.sprintf "timing NOT closed (fmax %.2f GHz), no retry %s"
            metrics.fmax_ghz
            (if not sa.search.Searcher.timing_closed then
               "(search missed pre-layout)"
             else "(boost exhausted)")
      in
      Ok
        ( { metrics; timing_closed },
          Stage.meta ~crit_in_ps:signoff.Post_layout.sta.Sta.crit_ps
            ~crit_out_ps:metrics.crit_ps ~boost:sa.boost ~note () ))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Pipeline-level registry instruments. Attempt/retry/ECO counts are
   decided by PPA floats that every engine reproduces bit-identically
   and every job count schedules identically, so all are deterministic. *)
let m_pipeline_runs = Metrics.counter "pipeline.runs"
let m_attempts = Metrics.counter "pipeline.attempts"
let m_retries = Metrics.counter "pipeline.retries"
let m_eco_iters = Metrics.counter "pipeline.eco_iters"

(* The lookup latency distribution is wall-clock; counts come from the
   deterministic cache.disk.* counters instead. *)
let m_cache_lookup_ms = Metrics.histogram ~det:false "cache.disk.lookup_ms"

(** [run ?trace ?inject ctx spec] — compile [spec] over the context's
    library and shared SCL memo, with {!placement} and
    {!default_policy}. A spec that fails {!validate} is an [Error] before
    any stage runs. Each attempt runs search and backend; the backend
    applies the retry policy to the routed timing its ECO loop kept, and
    a discarded attempt goes no further: the next one searches again
    under the boost it asked for. The attempt that ships runs
    [signoff_verify], [power] and [metrics]. One netlist table serves
    every attempt, so a configuration is built once per compile; it is
    dropped when [run] returns. Every stage execution (across every
    attempt) appends a row to [trace], if given; [inject] forces the
    named stage to fail, for exercising the diagnostic path. *)
let run ?trace ?inject (ctx : Ctx.t) (spec : Spec.t) :
    (run, Diag.t) Stdlib.result =
  let* () = validate spec in
  let lib = Ctx.lib ctx and scl = Ctx.scl ctx in
  let exec s x = Stage.execute ?trace ?inject s x in
  let budget_ps = Spec.nominal_budget_ps spec lib.Library.node in
  let netlists = Eval_cache.netlists () in
  let rec attempt acc boost =
    let* sa = exec (search_stage ~netlists lib scl ~boost) spec in
    let* ba =
      exec
        (backend_stage lib ~style:placement ~spec ~budget_ps
           ~max_eco_iters:default_policy.max_eco_iters
           ~retry:(retry_decision lib sa))
        sa.macro
    in
    Metrics.incr m_attempts;
    Metrics.add m_eco_iters (List.length ba.eco);
    let with_this ~closed =
      acc
      @ [
          {
            attempt_boost = boost;
            attempt_cache = sa.cache;
            attempt_eco = ba.eco;
            attempt_closed = closed;
          };
        ]
    in
    match ba.outcome with
    | Retry b ->
        Metrics.incr m_retries;
        attempt (with_this ~closed:false) b
    | Ship signoff ->
        let* sa = exec verify_stage sa in
        let* power = exec (power_stage lib ~spec) (sa.macro, signoff) in
        let* v = exec (metrics_stage lib) (sa, signoff, power) in
        Ok
          {
            artifact =
              {
                spec;
                search = sa.search;
                macro = sa.macro;
                signoff;
                power;
                metrics = v.metrics;
                timing_closed = v.timing_closed;
              };
            attempts = with_this ~closed:v.timing_closed;
          }
  in
  Metrics.incr m_pipeline_runs;
  attempt [] 1.0

(** [artifact_exn r] — unwrap a pipeline result, raising {!Diag.Failed}
    on a diagnostic. For harness code whose specs are known-good. *)
let artifact_exn = function
  | Ok r -> r.artifact
  | Error d -> raise (Diag.Failed d)

(* ------------------------------------------------------------------ *)
(* Cached driver (persistent compile cache)                            *)
(* ------------------------------------------------------------------ *)

(** Name of the pseudo-stage the cached driver traces: one row per
    lookup, carrying the hit/miss counters for this compilation. *)
let stage_cache = "cache"

(** How the persistent cache participated in a compilation. *)
type cache_outcome =
  | Cache_off  (** no cache was given *)
  | Cache_hit  (** served from the store; no stage ran *)
  | Cache_miss  (** compiled, result stored *)
  | Cache_corrupt of string
      (** an entry existed but failed integrity checks; compiled and the
          entry was replaced — the reason is the integrity failure *)

(** Metrics-level result of a (possibly cached) compilation: everything
    the batch driver reports, with no netlist or layout attached — a
    cache hit reconstructs it without running any stage. *)
type summary = {
  sum_spec : Spec.t;
  sum_metrics : metrics;
  sum_timing_closed : bool;
  sum_insts : int;  (** netlist instance count *)
  sum_nets : int;
  sum_attempts : int;  (** pipeline attempts (1 + retries) *)
  sum_boost : float;  (** boost the winning attempt ran under *)
  sum_cache : cache_outcome;
}

let summary_of_run (r : run) : summary =
  let a = r.artifact in
  {
    sum_spec = a.spec;
    sum_metrics = a.metrics;
    sum_timing_closed = a.timing_closed;
    sum_insts = Ir.n_insts a.macro.Macro_rtl.design;
    sum_nets = a.macro.Macro_rtl.design.Ir.n_nets;
    sum_attempts = List.length r.attempts;
    sum_boost =
      (match List.rev r.attempts with
      | last :: _ -> last.attempt_boost
      | [] -> 1.0);
    sum_cache = Cache_off;
  }

let cache_value_of_summary (s : summary) : Disk_cache.value =
  let m = s.sum_metrics in
  {
    Disk_cache.spec_desc = Spec.describe s.sum_spec;
    crit_ps = m.crit_ps;
    fmax_ghz = m.fmax_ghz;
    power_w = m.power_w;
    area_mm2 = m.area_mm2;
    tops = m.tops;
    tops_per_w = m.tops_per_w;
    tops_per_mm2 = m.tops_per_mm2;
    ops_norm = m.ops_norm;
    timing_closed = s.sum_timing_closed;
    insts = s.sum_insts;
    nets = s.sum_nets;
    attempts = s.sum_attempts;
    boost = s.sum_boost;
  }

let summary_of_cache_value (spec : Spec.t) (v : Disk_cache.value) : summary =
  {
    sum_spec = spec;
    sum_metrics =
      {
        crit_ps = v.Disk_cache.crit_ps;
        fmax_ghz = v.Disk_cache.fmax_ghz;
        power_w = v.Disk_cache.power_w;
        area_mm2 = v.Disk_cache.area_mm2;
        tops = v.Disk_cache.tops;
        tops_per_w = v.Disk_cache.tops_per_w;
        tops_per_mm2 = v.Disk_cache.tops_per_mm2;
        ops_norm = v.Disk_cache.ops_norm;
      };
    sum_timing_closed = v.Disk_cache.timing_closed;
    sum_insts = v.Disk_cache.insts;
    sum_nets = v.Disk_cache.nets;
    sum_attempts = v.Disk_cache.attempts;
    sum_boost = v.Disk_cache.boost;
    sum_cache = Cache_hit;
  }

(** Pipeline-level inputs to the cache key: the floorplan style and the
    retry policy both steer the compiled result, so they version the key
    alongside {!Searcher.algorithm_version}. [run] compiles with
    {!placement} and {!default_policy}. The tag keeps the [vtrue,rtrue]
    sign-off and retry flags, both always on, so the keys of existing
    stores do not change. *)
let cache_algo_tag ~style (p : policy) : string =
  Printf.sprintf "%s|style=%s|policy=vtrue,rtrue,mb%h,bs%h,eco%d"
    Searcher.algorithm_version (Floorplan.style_name style) p.max_boost
    p.boost_step p.max_eco_iters

let add_cache_row trace ~wall_ms ?cells ?crit_out_ps ~hit ?boost note =
  match trace with
  | None -> ()
  | Some tr ->
      let row =
        Stage.meta ?cells ?crit_out_ps
          ~cache_hits:(if hit then 1 else 0)
          ~cache_misses:(if hit then 0 else 1)
          ?boost ~note ()
      in
      Trace.add tr { row with Trace.stage = stage_cache; wall_ms }

(** [run_cached ?trace ctx spec] — {!run} behind the context's
    persistent compile cache. With a cache attached, the spec's content
    address is looked up first: a hit skips every stage and reconstructs
    the {!summary} from the store (appending a single [cache] trace
    row); a miss — including a corrupt entry, which is diagnosed but
    never fatal — runs the full pipeline and stores the result. Without
    a cache this is exactly [run] plus summarization. *)
let run_cached ?trace (ctx : Ctx.t) (spec : Spec.t) :
    (summary, Diag.t) Stdlib.result =
  (* before the lookup: a malformed spec is never served from a store *)
  let* () = validate spec in
  match Ctx.cache ctx with
  | None ->
      let* r = run ?trace ctx spec in
      Ok (summary_of_run r)
  | Some dc -> (
      let t0 = Unix.gettimeofday () in
      let k =
        Disk_cache.key
          ~lib_fp:(Disk_cache.library_fingerprint (Ctx.lib ctx))
          ~algo:(cache_algo_tag ~style:placement default_policy)
          spec
      in
      let short = String.sub k 0 12 in
      let looked = Disk_cache.lookup dc k in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Metrics.observe m_cache_lookup_ms wall_ms;
      match looked with
      | Disk_cache.Hit v ->
          add_cache_row trace ~wall_ms ~cells:v.Disk_cache.insts
            ~crit_out_ps:v.Disk_cache.crit_ps ~hit:true
            ~boost:v.Disk_cache.boost
            (Printf.sprintf "hit %s (all stages skipped)" short);
          Ok (summary_of_cache_value spec v)
      | (Disk_cache.Miss | Disk_cache.Corrupt _) as l ->
          let outcome, note =
            match l with
            | Disk_cache.Corrupt reason ->
                ( Cache_corrupt reason,
                  Printf.sprintf "corrupt entry %s (%s): recompiling" short
                    reason )
            | _ -> (Cache_miss, Printf.sprintf "miss %s" short)
          in
          add_cache_row trace ~wall_ms ~hit:false note;
          let* r = run ?trace ctx spec in
          let s = { (summary_of_run r) with sum_cache = outcome } in
          Disk_cache.store dc k (cache_value_of_summary s);
          Ok s)

(* ------------------------------------------------------------------ *)
(* Stage-level entry points for the experiment harnesses               *)
(* ------------------------------------------------------------------ *)

(** [search_only ?trace ctx spec] — run just the search stage. *)
let search_only ?trace (ctx : Ctx.t) (spec : Spec.t) :
    (search_art, Diag.t) Stdlib.result =
  let* () = validate spec in
  Stage.execute ?trace
    (search_stage (Ctx.lib ctx) (Ctx.scl ctx) ~boost:1.0)
    spec

(** [backend_once ?trace ?spec ctx ~style macro] — one
    place/route/sign-off pass with no ECO re-closure (infinite budget,
    zero iterations); returns the signed-off layout. *)
let backend_once ?trace ?spec (ctx : Ctx.t) ~style (macro : Macro_rtl.t) :
    (Post_layout.t, Diag.t) Stdlib.result =
  let* ba =
    Stage.execute ?trace
      (backend_stage (Ctx.lib ctx) ~style ?spec ~budget_ps:infinity
         ~max_eco_iters:0)
      macro
  in
  match ba.outcome with
  | Ship signoff -> Ok signoff
  | Retry _ -> assert false (* no [retry] was given *)

(* ------------------------------------------------------------------ *)
(* Stage artifact serialization (--dump-stage)                         *)
(* ------------------------------------------------------------------ *)

let describe_eco (eco : eco_iteration list) =
  if eco = [] then "eco: no iterations (budget met at first sign-off)\n"
  else
    String.concat ""
      (List.map
         (fun (i : eco_iteration) ->
           Printf.sprintf "eco[%d]: %s%s\n" i.iter i.reason
             (if i.rolled_back then " [rolled back]" else ""))
         eco)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(** [dump_stage ctx r ~name ~dir] — serialize the named stage's artifact
    (netlist + stats, floorplan DEF, STA summary with the ECO record,
    power breakdown, metrics) into [dir]; returns the files written. *)
let dump_stage (ctx : Ctx.t) (r : run) ~name ~dir :
    (string list, Diag.t) Stdlib.result =
  let lib = Ctx.lib ctx in
  let a = r.artifact in
  Diag.guard ~stage:name ~spec:a.spec (fun () ->
      mkdirs dir;
      let file fname text =
        let oc = open_out (Filename.concat dir fname) in
        output_string oc text;
        close_out oc;
        fname
      in
      match name with
      | "search" ->
          Verilog.write_file
            (Filename.concat dir "netlist.v")
            a.macro.Macro_rtl.design;
          let stats = Stats.of_design a.macro.Macro_rtl.design lib in
          let txt =
            Printf.sprintf
              "spec: %s\nattempts: %d (final boost x%.2f)\npre-layout crit: \
               %.1f ps\npre-layout timing: %s\ninstances: %d\nnets: %d\n\
               area: %.0f um2\ncache: %d hits / %d misses\ntechniques:\n%s"
              (Spec.describe a.spec) (List.length r.attempts)
              (match List.rev r.attempts with
              | last :: _ -> last.attempt_boost
              | [] -> 1.0)
              a.search.Searcher.final.Design_point.crit_ps
              (if a.search.Searcher.timing_closed then "closed"
               else "NOT closed")
              (Ir.n_insts a.macro.Macro_rtl.design)
              a.macro.Macro_rtl.design.Ir.n_nets stats.Stats.area_um2
              (match List.rev r.attempts with
              | last :: _ -> last.attempt_cache.Eval_cache.hits
              | [] -> 0)
              (match List.rev r.attempts with
              | last :: _ -> last.attempt_cache.Eval_cache.misses
              | [] -> 0)
              (String.concat ""
                 (List.map
                    (fun t ->
                      Printf.sprintf "  - %s\n" (Searcher.technique_name t))
                    a.search.Searcher.applied))
          in
          [ "netlist.v"; file "search.txt" txt ]
      | "signoff_verify" ->
          [
            file "verify.txt"
              (Printf.sprintf
                 "spec: %s\nverified: %d random MAC batches per weight copy \
                  (%d copies) against the golden model, seed 0x%X\n"
                 (Spec.describe a.spec) verify_batches
                 a.macro.Macro_rtl.cfg.Macro_rtl.mcr 0xACC);
          ]
      | "backend" ->
          Def_writer.write_file lib
            (Filename.concat dir "floorplan.def")
            a.signoff.Post_layout.placement;
          let eco =
            match List.rev r.attempts with
            | last :: _ -> last.attempt_eco
            | [] -> []
          in
          let txt =
            Printf.sprintf
              "post-layout crit: %.1f ps\narea: %.4f mm2\nwirelength: %.1f \
               mm\nDRC violations: %d\nLVS: %s\n%s"
              a.signoff.Post_layout.sta.Sta.crit_ps
              a.signoff.Post_layout.area_mm2
              a.signoff.Post_layout.total_wirelength_mm
              (List.length a.signoff.Post_layout.drc_violations)
              (if a.signoff.Post_layout.lvs.Lvs.clean then "clean" else "DIRTY")
              (describe_eco eco)
          in
          [ "floorplan.def"; file "sta.txt" txt ]
      | "power" ->
          let b = Buffer.create 512 in
          Buffer.add_string b
            (Printf.sprintf "total: %.4f mW @ %.0f MHz, %.2f V\n"
               (a.power.Power.total_w *. 1e3)
               (a.spec.Spec.mac_freq_hz /. 1e6)
               a.spec.Spec.vdd);
          List.iter
            (fun (name, w) ->
              Buffer.add_string b
                (Printf.sprintf "  %-16s %.4f mW\n" name (w *. 1e3)))
            a.power.Power.by_subcircuit;
          [ file "power.txt" (Buffer.contents b) ]
      | "metrics" ->
          let m = a.metrics in
          [
            file "metrics.txt"
              (Printf.sprintf
                 "crit_ps: %.1f\nfmax_ghz: %.3f\npower_w: %.6f\narea_mm2: \
                  %.6f\ntops: %.4f\ntops_per_w: %.2f\ntops_per_mm2: %.2f\n\
                  ops_norm: %.0f\ntiming_closed: %b\n"
                 m.crit_ps m.fmax_ghz m.power_w m.area_mm2 m.tops
                 m.tops_per_w m.tops_per_mm2 m.ops_norm a.timing_closed);
          ]
      | other ->
          failwith
            (Printf.sprintf "unknown stage %S (expected one of: %s)" other
               (String.concat ", " stage_names)))
