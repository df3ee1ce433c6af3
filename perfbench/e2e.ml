(* SynDCIM end-to-end benchmark: runs one workload and prints its
   metrics, the last line of standard output being one JSON object

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   run also records spans (written as Chrome trace-event JSON under
   .perfbench/) and reports the per-layer metrics instead.

   Usage: e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
   (perfbench/run.py builds it and runs every workload.) *)

let usage =
  "e2e.exe --workload (" ^ String.concat "|" (List.map fst Workloads.all)
  ^ ") [--seed N] [--seconds S] [--trace 0|1]"

let end_to_end (r : Workloads.result) =
  [
    ("setup_s", r.Workloads.setup_s, "s");
    ( "throughput_per_s",
      Timing.ratio (float_of_int r.Workloads.ops) r.Workloads.busy_s,
      "1/s" );
    ("latency_p50_ms", Timing.quantile r.Workloads.latencies_s 0.5 *. 1e3, "ms");
    ("latency_p90_ms", Timing.quantile r.Workloads.latencies_s 0.9 *. 1e3, "ms");
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S program time to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload Workloads.all with
    | Some f when (!trace = 0 || !trace = 1) && !seconds > 0.0 -> f
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let traced = !trace = 1 in
  let origin = Timing.now () in
  let r = run ~seed:!seed ~seconds:!seconds ~traced in
  let metrics =
    if traced then Layers.complete r.Workloads.layers else end_to_end r
  in
  Printf.printf "workload %s, seed %d: %d operations in %.2f s of program time\n"
    !workload !seed r.Workloads.ops r.Workloads.busy_s;
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) r.Workloads.errors;
  if traced then begin
    Workloads.ensure_work_dir ();
    let path =
      Filename.concat Workloads.work_dir ("trace-" ^ !workload ^ ".json")
    in
    Spans.write r.Workloads.spans ~origin path;
    Printf.printf "trace: %d spans written to %s\n" (Spans.count r.Workloads.spans) path
  end;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-36s %14.6g %s\n" name v unit)
    metrics;
  let correct = r.Workloads.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.Workloads.attempted r.Workloads.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
              v unit)
          metrics));
  exit (if correct then 0 else 1)
