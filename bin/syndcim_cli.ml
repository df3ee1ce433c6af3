(* SynDCIM command-line driver.

   syndcim compile  — spec to signed-off macro, with artifact export
   syndcim batch    — manifest of specs through the persistent cache
   syndcim exp      — reproduce the paper's tables and figures
   syndcim verify   — differential fuzz campaign, metamorphic properties,
                      PPA snapshot regression
   syndcim library  — dump the synthetic cell library views (LIB / LEF)

   Every compiling subcommand shares one execution-context term
   ([ctx_term]: --jobs and --scl-cache) and runs through [with_ctx],
   which validates the job count, builds a [Ctx.t] over the process-wide
   shared library + SCL memo, merges a persisted SCL LUT in, and saves
   the warmed LUT back out after the run. *)

open Cmdliner

(* Spec-field converters over the manifest parsers, so a flag and a
   manifest field accept exactly the same spellings. *)
let conv_of parse name =
  let parse s = Result.map_error (fun e -> `Msg e) (parse s) in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (name v))

let precision_conv = conv_of Batch.precision_of_string Precision.name
let preference_conv = conv_of Batch.preference_of_string Spec.preference_name

(* ---------------- output paths ---------------- *)

(* [write_out ~stage path f] — run [f], the writer of [path]: true when
   it succeeds, false after printing an I/O failure as a one-line
   diagnostic instead of letting it escape. *)
let write_out ~stage path f =
  let fail msg =
    print_endline
      (Diag.to_string
         (Diag.error ~stage ~payload:[ ("path", path) ]
            ("cannot write " ^ msg)));
    false
  in
  match f () with
  | () -> true
  | exception Sys_error msg -> fail msg
  | exception Unix.Unix_error (e, _, arg) ->
      fail (Printf.sprintf "%s: %s" arg (Unix.error_message e))

(* [with_out_dir out f] — make sure the -o directory exists before
   anything runs, under the --cache-dir policy ({!Fsutil.ensure_dir}). A
   bad path is a one-line diagnostic and exit 1. *)
let with_out_dir out (f : unit -> int) : int =
  match out with
  | None -> f ()
  | Some dir -> (
      match Fsutil.ensure_dir ~what:"output directory" dir with
      | Ok () -> f ()
      | Error msg ->
          print_endline
            (Diag.to_string
               (Diag.error ~stage:"compile" ~payload:[ ("out-dir", dir) ] msg));
          1)

(* ---------------- shared execution context ---------------- *)

type ctx_args = {
  cli_jobs : int option;
  cli_scl_cache : string option;
  cli_metrics : bool;
  cli_metrics_out : string option;
}

(** The one --jobs / --scl-cache / --metrics[-out] bundle
    every compiling subcommand reuses; the doc strings live here once
    instead of per subcommand. *)
let ctx_term =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ]
          ~doc:
            "Worker domains (default: the SYNDCIM_JOBS environment \
             variable, then the number of cores). Must be >= 1.")
  in
  let scl_cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "scl-cache" ] ~docv:"FILE"
          ~doc:
            "CSV file for the characterized subcircuit-library LUT; \
             loaded if present, saved after the run.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the process metrics registry (counters, cache \
             hit/miss totals, per-stage latency histograms) as a table \
             after the run.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the full metrics registry as JSON to $(docv) after \
             the run (schema syndcim-metrics/1).")
  in
  let make cli_jobs cli_scl_cache cli_metrics cli_metrics_out =
    { cli_jobs; cli_scl_cache; cli_metrics; cli_metrics_out }
  in
  Term.(const make $ jobs $ scl_cache $ metrics $ metrics_out)

(** [with_ctx a f] — validate the parsed context arguments, build the
    context over the shared world, merge the persisted SCL LUT, run
    [f ctx], then persist the warmed LUT (even when [f] fails: the
    characterization work is valid regardless of the run's verdict). A
    bad job count or a malformed LUT is a one-line diagnostic and exit 1,
    before anything runs; an unwritable [--scl-cache] or [--metrics-out]
    is one after. *)
let with_ctx (a : ctx_args) (f : Ctx.t -> int) : int =
  let opened =
    let ( let* ) = Result.bind in
    let* jobs =
      match a.cli_jobs with
      | None -> Ok None
      | Some j -> Result.map Option.some (Ctx.validate_jobs j)
    in
    let ctx = Ctx.default () in
    let ctx = match jobs with Some j -> Ctx.with_jobs j ctx | None -> ctx in
    let ctx =
      match a.cli_scl_cache with
      | Some p -> Ctx.with_scl_cache p ctx
      | None -> ctx
    in
    let* n = Ctx.load_scl ctx in
    (match a.cli_scl_cache with
    | Some p when Sys.file_exists p ->
        Printf.printf "loaded %d characterized subcircuits from %s\n" n p
    | _ -> ());
    Ok ctx
  in
  match opened with
  | Error d ->
      (* one-line diagnostic, non-zero exit, never a backtrace *)
      print_endline (Diag.to_string d);
      1
  | Ok ctx ->
      let code = f ctx in
      let scl_ok =
        match (Ctx.save_scl ctx, a.cli_scl_cache) with
        | Ok (Some n), Some p ->
            Printf.printf "subcircuit LUT (%d entries) saved to %s\n" n p;
            true
        | Ok _, _ -> true
        | Error d, _ ->
            print_endline (Diag.to_string d);
            false
      in
      (* metrics reporting runs whatever f's verdict was: a failed run
         is exactly when "where did the time go" matters *)
      if a.cli_metrics then begin
        print_endline "metrics:";
        print_string (Metrics.render ())
      end;
      let metrics_ok =
        match a.cli_metrics_out with
        | None -> true
        | Some path ->
            write_out ~stage:"ctx" path (fun () ->
                Fsutil.write_atomic path (Metrics.to_json ());
                Printf.printf "metrics written to %s\n" path)
      in
      if metrics_ok && scl_ok then code else 1

(* ---------------- compile ---------------- *)

let compile_cmd =
  let d = Batch.default_spec in
  let rows = Arg.(value & opt int d.Spec.rows & info [ "rows"; "H" ] ~doc:"Array height H.") in
  let cols = Arg.(value & opt int d.Spec.cols & info [ "cols"; "W" ] ~doc:"Array width W.") in
  let mcr = Arg.(value & opt int d.Spec.mcr & info [ "mcr" ] ~doc:"Memory-compute ratio.") in
  let iprec =
    Arg.(value & opt precision_conv d.Spec.input_prec
         & info [ "input-precision" ] ~doc:"Input format (int1..8, fp4, fp8, bf16).")
  in
  let wprec =
    Arg.(value & opt precision_conv d.Spec.weight_prec
         & info [ "weight-precision" ] ~doc:"Weight format.")
  in
  let freq = Arg.(value & opt float (d.Spec.mac_freq_hz /. 1e6) & info [ "freq-mhz" ] ~doc:"MAC clock target (MHz).") in
  let wupd = Arg.(value & opt float (d.Spec.weight_update_freq_hz /. 1e6) & info [ "wupd-mhz" ] ~doc:"Weight-update clock target (MHz).") in
  let vdd = Arg.(value & opt float d.Spec.vdd & info [ "vdd" ] ~doc:"Operating supply (V).") in
  let prefer =
    Arg.(value & opt preference_conv d.Spec.preference
         & info [ "prefer" ] ~doc:"PPA preference: power, area, performance, balanced.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out-dir" ]
             ~doc:"Write the compiled macro here: netlist.v, placement.def, \
                   macro.lib, macro.lef and report.txt, plus the stage \
                   summaries search.txt, verify.txt, sta.txt, power.txt and \
                   metrics.txt.")
  in
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the per-stage instrumentation table: wall-clock,                    cells touched, critical path in/out, evaluation-cache                    hits/misses, ECO iterations and retry boosts.")
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject-fail" ] ~docv:"STAGE"
             ~doc:"Force the named pipeline stage to fail with a                    diagnostic (failure-path test hook).")
  in
  let run ctx_a rows cols mcr iprec wprec freq wupd vdd prefer out
      trace_on inject =
    with_ctx ctx_a @@ fun ctx ->
    with_out_dir out @@ fun () ->
    let spec =
      {
        Spec.rows; cols; mcr;
        input_prec = iprec;
        weight_prec = wprec;
        mac_freq_hz = freq *. 1e6;
        weight_update_freq_hz = wupd *. 1e6;
        vdd;
        preference = prefer;
      }
    in
    let svc = Service.create ctx in
    let req = Service.compile_artifact ?inject svc spec in
    let lib = Ctx.lib ctx in
    let print_trace () =
      if trace_on then begin
        print_endline "pipeline trace:";
        print_string (Trace.render req.Service.trace)
      end
    in
    match req.Service.outcome with
    | Error d ->
        (* the structured diagnostic is the report: stage, spec context,
           message, payload — and a non-zero exit, never a backtrace *)
        print_endline (Diag.to_string d);
        print_trace ();
        1
    | Ok r ->
        let a = r.Pipeline.artifact in
        print_string (Report.to_string lib a);
        print_trace ();
        let out_ok =
          match out with
          | None -> true
          | Some dir ->
              write_out ~stage:"compile" dir (fun () ->
                  List.iter
                    (fun (name, text) ->
                      Fsutil.write_atomic (Filename.concat dir name) text)
                    (Report.files lib r);
                  Printf.printf "artifacts written to %s/\n" dir)
        in
        if a.Pipeline.timing_closed && out_ok then 0 else 1
  in
  let term =
    Term.(const run $ ctx_term $ rows $ cols $ mcr $ iprec $ wprec $ freq
          $ wupd $ vdd $ prefer $ out $ trace_flag $ inject)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a DCIM macro from a specification")
    term

(* ---------------- batch ---------------- *)

let batch_cmd =
  let manifest =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"MANIFEST"
             ~doc:"Manifest file: one spec per line as whitespace-separated                    key=value fields (rows, cols, mcr, iprec, wprec, freq_mhz,                    wupd_mhz, vdd, prefer), # comments allowed.")
  in
  let gen =
    Arg.(value & opt (some (pair ~sep:':' int int)) None
         & info [ "gen" ] ~docv:"SEED:COUNT"
             ~doc:"Generate the batch instead of reading a manifest: COUNT                    stratified specs from the verification fuzzer, deterministic                    in SEED.")
  in
  let cache_dir =
    Arg.(value & opt string ".syndcim-cache"
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persistent compile-cache directory (created if missing;                    its parent must exist).")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Compile everything; neither read nor                    write the persistent cache.")
  in
  let warm =
    Arg.(value & flag
         & info [ "warm" ]
             ~doc:"Populate-only mode: compile misses into the cache and                    print just the summary line, no per-spec report.")
  in
  let manifest_out =
    Arg.(value & opt (some string) None
         & info [ "manifest-out" ] ~docv:"FILE"
             ~doc:"Write the machine-readable batch manifest (JSON:                    per-spec status, PPA, cache hit/miss, wall time) here.")
  in
  let ppa_out =
    Arg.(value & opt (some string) None
         & info [ "ppa-out" ] ~docv:"FILE"
             ~doc:"Write the deterministic full-precision PPA record here                    (byte-identical across cache states and job counts).")
  in
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the merged per-stage instrumentation table,                    including one cache row per spec.")
  in
  let run ctx_a manifest gen cache_dir no_cache warm manifest_out ppa_out
      trace_on =
    with_ctx ctx_a @@ fun ctx ->
    let ( let* ) = Result.bind in
    let outcome =
      let* specs =
        match (manifest, gen) with
        | Some path, None -> Batch.load_manifest path
        | None, Some (seed, count) ->
            if count < 1 then
              Error
                (Diag.error ~stage:"batch"
                   ~payload:[ ("count", string_of_int count) ]
                   "--gen needs a positive spec count")
            else Ok (Specgen.generate ~seed ~count)
        | Some _, Some _ ->
            Error
              (Diag.error ~stage:"batch"
                 "give a manifest file or --gen, not both")
        | None, None ->
            Error
              (Diag.error ~stage:"batch"
                 "no input: give a manifest file or --gen SEED:COUNT")
      in
      let* ctx =
        if no_cache then Ok ctx else Ctx.with_cache_dir cache_dir ctx
      in
      Ok (specs, ctx)
    in
    match outcome with
    | Error d ->
        print_endline (Diag.to_string d);
        1
    | Ok (specs, ctx) ->
        let trace = if trace_on then Some (Trace.create ()) else None in
        let svc = Service.create ctx in
        let r = Service.batch ?trace svc specs in
        List.iter (fun d -> print_endline (Diag.to_string d)) r.Batch.warnings;
        if not warm then print_string (Batch.render_table r);
        print_endline (Batch.describe r);
        (match Ctx.cache ctx with
        | Some c ->
            Printf.printf "cache: %s (%d entries in %s)\n"
              (Disk_cache.describe c)
              (Disk_cache.entry_count c) (Disk_cache.root c)
        | None -> ());
        (match trace with
        | Some t ->
            print_endline "batch trace:";
            print_string (Trace.render t)
        | None -> ());
        let write out text =
          match out with
          | None -> true
          | Some path ->
              write_out ~stage:"batch" path (fun () ->
                  Fsutil.write_atomic path (text ());
                  Printf.printf "wrote %s\n" path)
        in
        let manifest_ok = write manifest_out (fun () -> Batch.manifest_json r) in
        let ppa_ok = write ppa_out (fun () -> Batch.render_ppa r) in
        if r.Batch.failed = 0 && manifest_ok && ppa_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile a manifest of specifications through the persistent \
             compile cache")
    Term.(const run $ ctx_term $ manifest $ gen $ cache_dir $ no_cache
          $ warm $ manifest_out $ ppa_out $ trace_flag)

(* ---------------- experiments ---------------- *)

let exp_cmd =
  let which =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"EXPERIMENT"
             ~doc:"table1, fig7, fig8, fig9, table2, ablations (default: all)")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller dimensions, faster run.")
  in
  let exp_cache =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Reuse the persistent compile cache for the harness                    compiles that support it (fig8's implemented designs).")
  in
  let run ctx_a which quick cache_dir =
    with_ctx ctx_a @@ fun ctx ->
    let ctx =
      match cache_dir with
      | None -> ctx
      | Some dir -> (
          match Ctx.with_cache_dir dir ctx with
          | Ok ctx -> ctx
          | Error d ->
              Printf.printf "warning: %s — running uncached\n"
                (Diag.to_string d);
              ctx)
    in
    let want name = match which with None -> true | Some w -> w = name in
    if want "table1" then ignore (Table1.run ctx);
    if want "fig7" then begin
      let dims = if quick then [ 32; 64 ] else [ 32; 64; 128; 256 ] in
      Fig7.print (Fig7.run ~dims ctx)
    end;
    if want "fig8" then Fig8.print (Fig8.run ctx);
    if want "fig9" then begin
      let a = Pipeline.artifact_exn (Pipeline.run ctx Spec.fig8) in
      Fig9.print (Fig9.run ctx a)
    end;
    if want "table2" then
      Table2.print ?jobs:(Ctx.jobs ctx) (Table2.measure ctx);
    if want "ablations" then begin
      let heights = if quick then [ 16; 32 ] else [ 16; 32; 64; 128 ] in
      Ablation.print_adder_trees (Ablation.adder_trees ~heights ctx);
      Ablation.print_search_ladder (Ablation.search_ladder ctx Spec.fig8);
      let dims = if quick then [ 32 ] else [ 32; 64; 128 ] in
      Ablation.print_placements (Ablation.placements ~dims ctx);
      Ablation.print_mcr_sweep (Ablation.mcr_sweep ctx)
    end;
    0
  in
  Cmd.v (Cmd.info "exp" ~doc:"Reproduce the paper's tables and figures")
    Term.(const run $ ctx_term $ which $ quick $ exp_cache)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Bounded CI smoke run: fixed seed, 200 fuzzed specs,                    injected-bug canary and snapshot diff. Overrides --seed.")
  in
  let seed =
    Arg.(value & opt int Campaign.default_seed
         & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let specs =
    Arg.(value & opt int 200
         & info [ "specs" ] ~doc:"Number of fuzzed specifications.")
  in
  let update =
    Arg.(value & flag
         & info [ "update-snapshots" ]
             ~doc:"Re-record the golden PPA snapshot instead of diffing                    against it.")
  in
  let snapdir =
    Arg.(value & opt string (Filename.concat "test" "snapshots")
         & info [ "snapshot-dir" ] ~doc:"Directory holding the PPA snapshot.")
  in
  let run ctx_a smoke seed specs update snapdir =
    with_ctx ctx_a @@ fun ctx ->
    let seed, specs =
      if smoke then (Campaign.default_seed, max 200 specs) else (seed, specs)
    in
    (* stage 1: differential fuzz campaign + metamorphic properties *)
    let r = Campaign.run ~seed ~count:specs ctx in
    print_string (Campaign.describe r);
    List.iter
      (fun d -> print_endline (Diag.to_string d))
      (Campaign.diagnostics r);
    let campaign_ok = Campaign.clean r in
    (* stage 2: canary — an injected retiming bug must be caught and
       shrunk, proving the checker has teeth on this very build *)
    let bug = Diffcheck.Retime_early_sample in
    let canary = Campaign.run ~bug ~seed ~count:8 ctx in
    let canary_ok = canary.Campaign.failures <> [] in
    (match canary.Campaign.failures with
    | f :: _ ->
        Printf.printf "canary: injected %s caught and shrunk to [%s] in %d step(s)\n"
          (Diffcheck.bug_name bug)
          (Spec.describe f.Campaign.shrunk)
          f.Campaign.shrink_steps
    | [] ->
        print_string
          "canary: FAIL — injected retiming bug escaped the differential checker\n");
    (* stage 3: golden PPA snapshot *)
    let snap_ok =
      let outcome =
        if update then
          Snapshot.update ~dir:snapdir ctx
          |> Result.map (Printf.sprintf "snapshot: recorded %s\n")
        else
          Snapshot.check_diag ~dir:snapdir ctx
          |> Result.map (Printf.sprintf "snapshot: %d fingerprints match\n")
      in
      match outcome with
      | Ok line ->
          print_string line;
          true
      | Error d ->
          Printf.printf "snapshot: FAIL\n%s\n" (Diag.to_string d);
          false
    in
    if campaign_ok && canary_ok && snap_ok then begin
      print_string "verify: PASS\n";
      0
    end
    else begin
      print_string "verify: FAIL\n";
      1
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Differential fuzz campaign, metamorphic properties and golden \
             PPA snapshot regression")
    Term.(const run $ ctx_term $ smoke $ seed $ specs $ update $ snapdir)

(* ---------------- library ---------------- *)

let library_cmd =
  let view =
    Arg.(value & pos 0 string "lib"
         & info [] ~docv:"VIEW" ~doc:"lib (Liberty timing/power) or lef (geometry)")
  in
  let run view =
    let lib = Ctx.lib (Ctx.default ()) in
    (match view with
    | "lef" -> print_string (Liberty.lef_text lib)
    | _ -> print_string (Liberty.lib_text lib));
    0
  in
  Cmd.v
    (Cmd.info "library" ~doc:"Dump the synthetic 40nm cell library views")
    Term.(const run $ view)

let () =
  let doc = "SynDCIM: performance-aware digital computing-in-memory compiler" in
  let info = Cmd.info "syndcim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ compile_cmd; batch_cmd; exp_cmd; verify_cmd; library_cmd ]))
