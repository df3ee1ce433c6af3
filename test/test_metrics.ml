(* Tests for the unified metrics registry: instrument semantics
   (counters, gauges, histogram quantiles, kind clashes, reset, the
   enabled switch), concurrent recording through the domain pool, the
   pool helper-domain cap regression (3 items at jobs=16 must spawn 2
   helpers, not 15), and the determinism contract — jobs=1 vs jobs=4
   runs of the canonical snapshot specs must produce byte-identical
   deterministic-subset fingerprints, mirroring the Trace.fingerprint
   discipline. *)

let lib = Library.n40 ()
let scl = Scl.create lib
let base_ctx = Ctx.of_parts lib scl
let canonical_specs = List.map snd Snapshot.canonical_specs
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let check_float name expected actual =
  Alcotest.(check (float 1e-9)) name expected actual

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------------- instrument semantics (private registry) ------------- *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.counter" in
  check_int "fresh counter is zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  check_int "incr + add accumulate" 42 (Metrics.counter_value c);
  let c' = Metrics.counter ~registry:r "t.counter" in
  Metrics.incr c';
  check_int "re-registration returns the same instrument" 43
    (Metrics.counter_value c)

let test_gauge_basics () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "t.gauge" in
  check_float "fresh gauge is zero" 0.0 (Metrics.gauge_value g);
  Metrics.set_gauge g 2.5;
  Metrics.set_gauge g 7.25;
  check_float "last write wins" 7.25 (Metrics.gauge_value g)

let test_kind_clash () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "t.clash");
  (match Metrics.gauge ~registry:r "t.clash" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  match Metrics.histogram ~registry:r "t.clash" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

let test_histogram_quantiles () =
  let r = Metrics.create () in
  let h =
    Metrics.histogram ~registry:r ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "t.hist"
  in
  check_float "empty histogram p50" 0.0 (Metrics.quantile h 0.5);
  for v = 1 to 8 do
    Metrics.observe h (float_of_int v)
  done;
  check_int "count" 8 (Metrics.histogram_count h);
  check_float "sum" 36.0 (Metrics.histogram_sum h);
  (* counts per bucket: (<=1)=1, (<=2)=1, (<=4)=2, (<=8)=4; linear
     interpolation puts p50 at the top of the (2,4] bucket and p90 at
     rank 7.2 inside (4,8] *)
  check_float "p50" 4.0 (Metrics.quantile h 0.5);
  check_float "p90" 7.2 (Metrics.quantile h 0.9);
  Metrics.observe h 1e9;
  (* the overflow bucket has no upper bound: quantiles report the last
     finite bound as a floor rather than inventing a value *)
  check_float "overflow quantile floors at the last bound" 8.0
    (Metrics.quantile h 0.999);
  match Metrics.histogram ~registry:r ~buckets:[| 2.0; 1.0 |] "t.bad" with
  | _ -> Alcotest.fail "non-increasing bounds accepted"
  | exception Invalid_argument _ -> ()

let test_reset_and_enabled () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.c" in
  let h = Metrics.histogram ~registry:r "t.h" in
  Metrics.incr c;
  Metrics.observe h 1.0;
  Metrics.reset ~registry:r ();
  check_int "reset zeroes counters" 0 (Metrics.counter_value c);
  check_int "reset zeroes histograms" 0 (Metrics.histogram_count h);
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.incr c;
      Metrics.observe h 1.0);
  check_int "disabled registry ignores incr" 0 (Metrics.counter_value c);
  check_int "disabled registry ignores observe" 0 (Metrics.histogram_count h)

let test_fingerprint_subset () =
  let r = Metrics.create () in
  let det = Metrics.counter ~registry:r "t.det" in
  let nondet = Metrics.counter ~registry:r ~det:false "t.nondet" in
  let g = Metrics.gauge ~registry:r "t.g" in
  let h = Metrics.histogram ~registry:r "t.h" in
  Metrics.add det 3;
  Metrics.add nondet 99;
  Metrics.set_gauge g 1.5;
  Metrics.observe h 123.456;
  Metrics.observe h 7.89;
  let fp = Metrics.fingerprint ~registry:r () in
  check_bool "det counter value present" true
    (contains ~sub:"counter t.det = 3" fp);
  check_bool "nondet counter excluded" false (contains ~sub:"t.nondet" fp);
  check_bool "det gauge present" true (contains ~sub:"gauge t.g" fp);
  check_bool "det histogram reduced to its count" true
    (contains ~sub:"hist t.h count = 2" fp);
  check_bool "histogram sum never leaks wall clock" false
    (contains ~sub:"123" fp)

let test_json_export () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter ~registry:r "t.c") 7;
  Metrics.set_gauge (Metrics.gauge ~registry:r "t.g") 0.5;
  Metrics.observe (Metrics.histogram ~registry:r "t.h") 3.0;
  let j = Metrics.to_json ~registry:r () in
  check_bool "schema tagged" true (contains ~sub:"syndcim-metrics/1" j);
  check_bool "counter exported" true
    (contains ~sub:"{\"name\": \"t.c\", \"value\": 7, \"det\": true}" j);
  check_bool "histogram count exported" true (contains ~sub:"\"count\": 1" j);
  check_bool "overflow bucket tagged" true (contains ~sub:"\"+inf\"" j);
  let rendered = Metrics.render ~registry:r () in
  check_bool "render shows the counter" true (contains ~sub:"t.c" rendered);
  check_bool "render shows quantile columns" true
    (contains ~sub:"p99" rendered)

let test_concurrent_recording () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.par" in
  let h = Metrics.histogram ~registry:r ~buckets:[| 500.0; 1000.0 |] "t.parh" in
  Pool.parallel_iter ~jobs:4
    (fun i ->
      Metrics.incr c;
      Metrics.observe h (float_of_int i))
    (List.init 1000 Fun.id);
  check_int "1000 concurrent incrs" 1000 (Metrics.counter_value c);
  check_int "1000 concurrent observes" 1000 (Metrics.histogram_count h);
  check_float "no observation lost from the sum" 499500.0
    (Metrics.histogram_sum h)

(* ---------------- scoped instruments ---------------------------------- *)

let test_scoped_rollup () =
  let r = Metrics.create () in
  let parent = Metrics.counter ~registry:r "t.scoped" in
  let hparent =
    Metrics.histogram ~registry:r ~buckets:[| 1.0; 10.0 |] "t.scoped_h"
  in
  let a = Metrics.scoped parent and b = Metrics.scoped parent in
  let ha = Metrics.scoped_histogram hparent
  and hb = Metrics.scoped_histogram hparent in
  Metrics.add a 3;
  Metrics.incr b;
  Metrics.incr parent;
  Metrics.observe ha 0.5;
  Metrics.observe ha 5.0;
  Metrics.observe hb 50.0;
  check_int "scoped counter a" 3 (Metrics.counter_value a);
  check_int "sibling scoped counter b is independent" 1
    (Metrics.counter_value b);
  check_int "parent sums both scopes and its own adds" 5
    (Metrics.counter_value parent);
  check_int "scoped histogram a" 2 (Metrics.histogram_count ha);
  check_int "sibling scoped histogram b is independent" 1
    (Metrics.histogram_count hb);
  check_float "scoped histogram sum" 5.5 (Metrics.histogram_sum ha);
  check_int "parent histogram sees every observation" 3
    (Metrics.histogram_count hparent);
  check_float "parent histogram sum" 55.5 (Metrics.histogram_sum hparent);
  (* b's one observation overflows, so its p50 floors at the last bound;
     the parent's p50 (5.5) would sit inside the (1, 10] bucket *)
  check_float "scoped quantile reads only its own buckets" 10.0
    (Metrics.quantile hb 0.5)

let test_scoped_reset_enabled_export () =
  let r = Metrics.create () in
  let parent = Metrics.counter ~registry:r "t.scoped" in
  let hparent = Metrics.histogram ~registry:r "t.scoped_h" in
  Metrics.add parent 2;
  Metrics.observe hparent 1.0;
  let json = Metrics.to_json ~registry:r () in
  let fp = Metrics.fingerprint ~registry:r () in
  let c = Metrics.scoped parent and h = Metrics.scoped_histogram hparent in
  check_str "creating scoped instruments leaves to_json unchanged" json
    (Metrics.to_json ~registry:r ());
  check_str "creating scoped instruments leaves fingerprint unchanged" fp
    (Metrics.fingerprint ~registry:r ());
  Metrics.incr c;
  Metrics.observe h 1.0;
  Metrics.reset ~registry:r ();
  check_int "reset zeroes the parent" 0 (Metrics.counter_value parent);
  check_int "reset zeroes the parent histogram" 0
    (Metrics.histogram_count hparent);
  check_int "reset leaves the scoped counter" 1 (Metrics.counter_value c);
  check_int "reset leaves the scoped histogram" 1 (Metrics.histogram_count h);
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.incr c;
      Metrics.observe h 1.0);
  check_int "disabled: scoped counter silent" 1 (Metrics.counter_value c);
  check_int "disabled: parent counter silent" 0 (Metrics.counter_value parent);
  check_int "disabled: scoped histogram silent" 1 (Metrics.histogram_count h);
  check_int "disabled: parent histogram silent" 0
    (Metrics.histogram_count hparent)

(* ---------------- pool helper-domain cap (regression) ----------------- *)

let spawned () =
  Metrics.counter_value (Metrics.counter ~det:false "pool.domains_spawned")

let test_pool_spawn_cap () =
  (* 3 items at jobs=16: the caller is one worker, so exactly 2 helper
     domains — the oversubscription bug spawned 15 *)
  Metrics.reset ();
  ignore (Pool.run_parallel ~jobs:16 (fun x -> x + 1) [| 1; 2; 3 |]);
  check_int "3 items at jobs=16 spawn 2 helpers" 2 (spawned ());
  (* a single item needs no helpers at all *)
  Metrics.reset ();
  ignore (Pool.run_parallel ~jobs:16 (fun x -> x + 1) [| 1 |]);
  check_int "1 item spawns no helpers" 0 (spawned ());
  (* the empty sweep neither spawns nor crashes *)
  Metrics.reset ();
  ignore (Pool.run_parallel ~jobs:16 (fun (x : int) -> x) [||]);
  check_int "0 items spawn no helpers" 0 (spawned ());
  (* more items than jobs: the cap is jobs - 1, unchanged *)
  Metrics.reset ();
  ignore (Pool.run_parallel ~jobs:4 (fun x -> x * 2) (Array.init 64 Fun.id));
  check_int "64 items at jobs=4 spawn 3 helpers" 3 (spawned ());
  (* parallel_map still clamps and runs sequentially under jobs=1 *)
  Metrics.reset ();
  let ys = Pool.parallel_map ~jobs:16 (fun x -> x + 1) [ 10; 20; 30 ] in
  check_bool "parallel_map result order" true (ys = [ 11; 21; 31 ]);
  check_int "parallel_map inherits the cap" 2 (spawned ())

(* ---------------- determinism across job counts ------------------------ *)

(* Run the canonical snapshot specs through an uncached batch and return
   the deterministic-subset fingerprint. Uncached, so the disk-cache
   counters read zero in every configuration instead of varying with
   cold/warm state; the registry is process-wide, so reset scopes it to
   this run. *)
let fingerprint_of ~jobs =
  Metrics.reset ();
  let ctx = Ctx.with_jobs jobs base_ctx in
  let r = Batch.run ctx canonical_specs in
  check_int "no failures" 0 r.Batch.failed;
  Metrics.fingerprint ()

let test_determinism_jobs () =
  let reference = fingerprint_of ~jobs:1 in
  (* the deterministic subset must actually carry the workload: stage
     counts, signoff MACs, batch outcomes, pipeline attempts, forced
     search-time power streams *)
  check_bool "stage counts present" true
    (contains ~sub:"counter stage.search.runs = " reference);
  check_bool "signoff counts present" true
    (contains ~sub:"signoff.macs_checked" reference);
  check_bool "batch outcomes present" true
    (contains ~sub:"counter batch.items = 4" reference);
  check_bool "pipeline attempts present" true
    (contains ~sub:"pipeline.attempts" reference);
  check_bool "search power streams present" true
    (contains ~sub:"counter search.power_streams = " reference);
  check_bool "pool counters excluded" false (contains ~sub:"pool." reference);
  check_str "jobs=4 fingerprint matches jobs=1" reference
    (fingerprint_of ~jobs:4)

(* ---------------- service surface ------------------------------------ *)

let test_service_metrics () =
  Metrics.reset ();
  let svc = Service.create base_ctx in
  let req = Service.compile svc (List.hd canonical_specs) in
  (match req.Service.outcome with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  check_int "request counted" 1
    (Metrics.counter_value (Metrics.counter "service.requests"));
  check_int "request latency observed" 1
    (Metrics.histogram_count (Metrics.histogram "service.request_ms"));
  let j = Service.metrics_json svc in
  check_bool "service family exported" true (contains ~sub:"service." j);
  check_bool "describe reports request latency" true
    (contains ~sub:"req p50" (Service.describe svc));
  check_bool "metrics table renders" true
    (contains ~sub:"service.requests" (Service.metrics svc))

(* Each service reports its own latency: a service that served nothing
   prints no percentiles even when another one has, and a registry reset
   does not blank a live service's view. *)
let test_service_describe_own_latency () =
  Metrics.reset ();
  let a = Service.create (Ctx.fresh ()) and b = Service.create (Ctx.fresh ()) in
  (match (Service.compile a (List.hd canonical_specs)).Service.outcome with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  let requests s = (Service.stats s).Service.requests in
  check_int "global histogram counts every request"
    (requests a + requests b)
    (Metrics.histogram_count (Metrics.histogram "service.request_ms"));
  check_bool "idle service prints no latency" false
    (contains ~sub:"req p50" (Service.describe b));
  Metrics.reset ();
  check_bool "busy service keeps its latency across a reset" true
    (contains ~sub:"req p50" (Service.describe a))

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "reset + enabled switch" `Quick
            test_reset_and_enabled;
          Alcotest.test_case "fingerprint subset" `Quick
            test_fingerprint_subset;
          Alcotest.test_case "json + render" `Quick test_json_export;
          Alcotest.test_case "scoped roll-up" `Quick test_scoped_rollup;
          Alcotest.test_case "scoped reset + enabled + export" `Quick
            test_scoped_reset_enabled_export;
          Alcotest.test_case "concurrent recording" `Quick
            test_concurrent_recording;
        ] );
      ( "pool",
        [
          Alcotest.test_case "helper-domain cap" `Quick test_pool_spawn_cap;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-invariant fingerprints" `Slow
            test_determinism_jobs;
        ] );
      ( "service",
        [
          Alcotest.test_case "service metrics" `Quick test_service_metrics;
          Alcotest.test_case "describe reads its own latency" `Quick
            test_service_describe_own_latency;
        ] );
    ]
