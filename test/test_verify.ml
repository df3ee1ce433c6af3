(* Tests for the differential verification subsystem: the glitch-proof
   equivalence hold window, the spec fuzzer and shrinker, fault-injected
   differential checking, campaign determinism across job counts, the
   metamorphic properties and the PPA snapshot harness. *)

let lib = Library.n40 ()
let ctx = Ctx.of_parts lib (Scl.create lib)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- Equiv: per-cycle hold window ---------------- *)

(* The classic broken-retime symptom: a register glitch that is only
   visible on some cycles. [with_toggle] XORs a free-running toggle flop
   into output bit 0 — the two designs agree on exactly half of all
   cycles, including every even-parity sample point. *)
let toggled_identity ~with_toggle =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let x = Ir.new_bus ir 4 in
  Ir.add_input ir "x" x;
  let out =
    if not with_toggle then Array.map (Builder.buf c) x
    else begin
      let q = Ir.new_net ir in
      Builder.dff_into c ~d:(Builder.inv c q) ~q;
      Array.mapi
        (fun i b -> if i = 0 then Builder.xor2 c b q else Builder.buf c b)
        x
    end
  in
  Ir.add_output ir "o" out;
  Ir.freeze ir

let test_broken_retime_caught () =
  let a = toggled_identity ~with_toggle:false in
  let b = toggled_identity ~with_toggle:true in
  match Equiv.check ~settle:8 ~hold:4 a b with
  | Equiv.Mismatch { cycle; bus; _ } ->
      (* both designs agree at the drain boundary itself (even parity);
         only the per-cycle watch inside the hold window sees the glitch *)
      check_bool "caught strictly inside the hold window" true
        (cycle > 8 && cycle <= 12);
      Alcotest.(check string) "on the output bus" "o" bus
  | Equiv.Equivalent _ ->
      Alcotest.fail "toggle glitch escaped the hold window"

let test_equiv_clean_pair_still_passes () =
  (* structurally different trees with identical function survive the
     stricter per-cycle comparison *)
  let cfg =
    Macro_rtl.default ~rows:8 ~cols:8 ~mcr:1 ~input_prec:Precision.int4
      ~weight_prec:Precision.int4
  in
  let a = (Macro_rtl.build lib cfg).Macro_rtl.design in
  let b =
    (Macro_rtl.build lib
       { cfg with
         Macro_rtl.tree = Adder_tree.Csa { fa_ratio = 1.0; reorder = true } })
      .Macro_rtl.design
  in
  match Equiv.check ~settle:12 ~hold:6 a b with
  | Equiv.Equivalent n -> check_bool "vectors" true (n > 0)
  | Equiv.Mismatch { bus; cycle; _ } ->
      Alcotest.fail
        (Printf.sprintf "clean pair diverged on %s at cycle %d" bus cycle)

(* ---------------- Specgen: fuzzer and shrinker ---------------- *)

let test_fuzzer_deterministic () =
  let a = Specgen.generate ~seed:42 ~count:64 in
  let b = Specgen.generate ~seed:42 ~count:64 in
  check_bool "same seed, same specs" true (a = b);
  let c = Specgen.generate ~seed:43 ~count:64 in
  check_bool "different seed, different campaign" true (a <> c)

let test_fuzzer_legal_and_stratified () =
  let specs = Specgen.generate ~seed:42 ~count:64 in
  let precs = Hashtbl.create 8 and rows = Hashtbl.create 8 in
  List.iter
    (fun (s : Spec.t) ->
      let wb = Precision.datapath_bits s.Spec.weight_prec in
      check_bool "rows floor" true (s.Spec.rows >= 2);
      check_bool "cols positive" true (s.Spec.cols >= wb);
      check_int "cols aligned to weight words" 0 (s.Spec.cols mod wb);
      check_bool "mcr positive" true (s.Spec.mcr >= 1);
      Hashtbl.replace precs (Precision.name s.Spec.input_prec) ();
      Hashtbl.replace rows s.Spec.rows ())
    specs;
  (* stratification: a 64-spec campaign touches every input precision and
     every row class, not just the bulk of a uniform draw *)
  check_int "all input precisions covered" 7 (Hashtbl.length precs);
  check_int "all row strata covered" 5 (Hashtbl.length rows)

let test_fuzzer_specs_compile () =
  List.iter
    (fun (s : Spec.t) ->
      ignore (Macro_rtl.build lib (Spec.initial_config s)))
    (List.filteri (fun i _ -> i < 12) (Specgen.generate ~seed:7 ~count:12))

(* every shrink candidate strictly decreases this measure — the
   termination argument for the greedy descent, checked on real specs *)
let measure (s : Spec.t) =
  s.Spec.rows + s.Spec.cols + (4 * s.Spec.mcr)
  + (2 * Precision.datapath_bits s.Spec.input_prec)
  + (2 * Precision.datapath_bits s.Spec.weight_prec)
  + (if s.Spec.preference <> Spec.Balanced then 1 else 0)
  + if s.Spec.weight_update_freq_hz <> s.Spec.mac_freq_hz then 1 else 0

let test_shrink_strictly_simpler () =
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          let wb = Precision.datapath_bits c.Spec.weight_prec in
          check_bool "candidate legal" true (c.Spec.cols mod wb = 0);
          check_bool "candidate strictly simpler" true (measure c < measure s))
        (Specgen.shrink s))
    (Specgen.generate ~seed:3 ~count:24)

let test_shrink_reaches_minimal_reproducer () =
  let fails = Diffcheck.fails ~bug:Diffcheck.Retime_early_sample ~seed:3 ctx in
  let start =
    List.find fails (Specgen.generate ~seed:9 ~count:8)
  in
  let minimal, steps = Specgen.shrink_to_minimal ~fails start in
  check_bool "minimal still fails" true (fails minimal);
  check_bool "shrinking made progress" true (steps > 0);
  check_int "rows floor reached" 2 minimal.Spec.rows;
  (* fixpoint: no remaining candidate reproduces the failure *)
  check_bool "no candidate still fails" true
    (List.for_all (fun c -> not (fails c)) (Specgen.shrink minimal))

(* ---------------- Diffcheck: fault injection ---------------- *)

let spec ~rows ~cols ~prec =
  {
    Spec.rows;
    cols;
    mcr = 1;
    input_prec = prec;
    weight_prec = prec;
    mac_freq_hz = 800e6;
    weight_update_freq_hz = 800e6;
    vdd = 0.9;
    preference = Spec.Balanced;
  }

let test_diffcheck_clean () =
  List.iter
    (fun s ->
      let o = Diffcheck.check_spec ~seed:5 ctx s in
      check_bool "no failure" true (o.Diffcheck.failure = None);
      check_bool "checks performed" true (o.Diffcheck.checks > 0))
    [
      spec ~rows:8 ~cols:8 ~prec:Precision.int8;
      spec ~rows:4 ~cols:8 ~prec:Precision.int1;
      { (spec ~rows:8 ~cols:8 ~prec:Precision.int8) with
        Spec.input_prec = Precision.fp8 };
    ]

let test_diffcheck_catches_retime_bug () =
  check_bool "early sample caught" true
    (Diffcheck.fails ~bug:Diffcheck.Retime_early_sample ~seed:5 ctx
       (spec ~rows:8 ~cols:8 ~prec:Precision.int4))

let test_diffcheck_sign_bug_is_precision_dependent () =
  (* the dropped sign cycle only exists for multi-bit inputs: INT1 is
     unsigned, so the injected bug is a no-op there *)
  check_bool "caught at INT4" true
    (Diffcheck.fails ~bug:Diffcheck.Skip_sign_cycle ~seed:5 ctx
       (spec ~rows:8 ~cols:8 ~prec:Precision.int4));
  check_bool "invisible at INT1" false
    (Diffcheck.fails ~bug:Diffcheck.Skip_sign_cycle ~seed:5 ctx
       (spec ~rows:8 ~cols:8 ~prec:Precision.int1))

(* ---------------- Campaign: determinism across jobs ---------------- *)

let failure_key (f : Campaign.failure_report) =
  (f.Campaign.index, f.Campaign.original, f.Campaign.shrunk,
   f.Campaign.shrink_steps, f.Campaign.detail)

let test_campaign_jobs_invariant () =
  (* identical failure lists, shrunk reproducers and reports for any job
     count — per-spec seeds depend only on campaign seed and index *)
  let r1 =
    Campaign.run ~jobs:1 ~bug:Diffcheck.Retime_early_sample ~seed:11
      ~count:6 ctx
  in
  let r4 =
    Campaign.run ~jobs:4 ~bug:Diffcheck.Retime_early_sample ~seed:11
      ~count:6 ctx
  in
  check_bool "failures found" true (r1.Campaign.failures <> []);
  check_bool "failure lists identical" true
    (List.map failure_key r1.Campaign.failures
    = List.map failure_key r4.Campaign.failures);
  check_int "check counts identical" r1.Campaign.checks r4.Campaign.checks;
  Alcotest.(check string)
    "rendered reports identical"
    (Campaign.describe r1) (Campaign.describe r4)

let test_campaign_clean_pass () =
  let r = Campaign.run ~jobs:2 ~seed:5 ~count:10 ctx in
  check_bool "clean" true (Campaign.clean r);
  check_bool "properties ran" true (r.Campaign.properties <> []);
  check_bool "verdict rendered" true
    (contains (Campaign.describe r) "verdict: PASS")

let test_campaign_injected_bug_reported () =
  let r =
    Campaign.run ~jobs:2 ~bug:Diffcheck.Skip_sign_cycle ~seed:11 ~count:8
      ctx
  in
  check_bool "not clean" true (not (Campaign.clean r));
  List.iter
    (fun (f : Campaign.failure_report) ->
      let fails =
        Diffcheck.fails ~bug:Diffcheck.Skip_sign_cycle
          ~seed:(Campaign.spec_seed ~seed:11 f.Campaign.index) ctx
      in
      check_bool "shrunk reproducer still fails" true (fails f.Campaign.shrunk);
      check_bool "shrunk reproducer is a fixpoint" true
        (List.for_all (fun c -> not (fails c))
           (Specgen.shrink f.Campaign.shrunk)))
    r.Campaign.failures

(* ---------------- Metamorph ---------------- *)

let test_metamorphic_moves_preserve_function () =
  List.iter
    (fun (r : Metamorph.result) ->
      check_bool (r.Metamorph.name ^ ": " ^ r.Metamorph.detail) true
        r.Metamorph.ok)
    (Metamorph.check_moves ~jobs:2 ~seed:13 ctx
       (spec ~rows:8 ~cols:8 ~prec:Precision.int4))

let test_lut_monotonicity () =
  List.iter
    (fun (r : Metamorph.result) ->
      check_bool (r.Metamorph.name ^ ": " ^ r.Metamorph.detail) true
        r.Metamorph.ok)
    (Metamorph.lut_monotonicity ctx)

(* ---------------- Snapshot ---------------- *)

let test_snapshot_stable_across_jobs () =
  let fingerprint jobs =
    Snapshot.render
      (Snapshot.fingerprint (Ctx.with_jobs jobs ctx) Snapshot.canonical_specs)
  in
  let a = fingerprint 1 and b = fingerprint 4 in
  Alcotest.(check string) "rendering job-count invariant" a b;
  check_bool "self-diff empty" true (Snapshot.diff ~expected:a ~actual:b = None)

let test_snapshot_perturbation_diff_readable () =
  let entries =
    Snapshot.fingerprint (Ctx.with_jobs 1 ctx) Snapshot.canonical_specs
  in
  let expected = Snapshot.render entries in
  let perturbed =
    List.mapi
      (fun i (e : Snapshot.entry) ->
        if i = 0 then { e with Snapshot.crit_ps = e.Snapshot.crit_ps +. 7.0 }
        else e)
      entries
  in
  match Snapshot.diff ~expected ~actual:(Snapshot.render perturbed) with
  | None -> Alcotest.fail "perturbed LUT fingerprint must fail the diff"
  | Some report ->
      check_bool "names the damage" true
        (contains report "1 of 4 fingerprints shifted");
      check_bool "shows recorded line" true (contains report "- recorded:");
      check_bool "shows measured line" true (contains report "+ measured:")

let test_snapshot_roundtrip_and_missing () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "syndcim-snap-test"
  in
  let path = Filename.concat dir Snapshot.file in
  if Sys.file_exists path then Sys.remove path;
  let ctx = Ctx.with_jobs 2 ctx in
  (match Snapshot.check ~dir ctx with
  | Error msg ->
      check_bool "missing snapshot names the update command" true
        (contains msg "--update-snapshots")
  | Ok _ -> Alcotest.fail "missing snapshot must be an error");
  let written = Snapshot.update ~dir ctx in
  Alcotest.(check string) "path" path written;
  (match Snapshot.check ~dir ctx with
  | Ok n -> check_int "fingerprints" (List.length Snapshot.canonical_specs) n
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_snapshot_matches_committed () =
  (* the committed golden PPA fingerprints (test/snapshots/ppa.snap):
     any drift in timing, area, power or structure fails tier-1 *)
  match Snapshot.check ~dir:"snapshots" ctx with
  | Ok n -> check_int "fingerprints" (List.length Snapshot.canonical_specs) n
  | Error report -> Alcotest.fail report

let () =
  Alcotest.run "verify"
    [
      ( "equiv",
        [
          Alcotest.test_case "broken retime caught" `Quick
            test_broken_retime_caught;
          Alcotest.test_case "clean pair passes" `Quick
            test_equiv_clean_pair_still_passes;
        ] );
      ( "specgen",
        [
          Alcotest.test_case "deterministic" `Quick test_fuzzer_deterministic;
          Alcotest.test_case "legal + stratified" `Quick
            test_fuzzer_legal_and_stratified;
          Alcotest.test_case "specs compile" `Quick test_fuzzer_specs_compile;
          Alcotest.test_case "shrink strictly simpler" `Quick
            test_shrink_strictly_simpler;
          Alcotest.test_case "shrink to minimal" `Quick
            test_shrink_reaches_minimal_reproducer;
        ] );
      ( "diffcheck",
        [
          Alcotest.test_case "clean specs" `Quick test_diffcheck_clean;
          Alcotest.test_case "retime bug caught" `Quick
            test_diffcheck_catches_retime_bug;
          Alcotest.test_case "sign bug precision-dependent" `Quick
            test_diffcheck_sign_bug_is_precision_dependent;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs-invariant" `Quick
            test_campaign_jobs_invariant;
          Alcotest.test_case "clean pass" `Quick test_campaign_clean_pass;
          Alcotest.test_case "injected bug reported" `Quick
            test_campaign_injected_bug_reported;
        ] );
      ( "metamorph",
        [
          Alcotest.test_case "moves preserve function" `Quick
            test_metamorphic_moves_preserve_function;
          Alcotest.test_case "LUT monotonicity" `Quick test_lut_monotonicity;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "stable across jobs" `Quick
            test_snapshot_stable_across_jobs;
          Alcotest.test_case "perturbation diff" `Quick
            test_snapshot_perturbation_diff_readable;
          Alcotest.test_case "roundtrip + missing" `Quick
            test_snapshot_roundtrip_and_missing;
          Alcotest.test_case "matches committed ppa.snap" `Quick
            test_snapshot_matches_committed;
        ] );
    ]
