(* Lane-parallel integration suite: the batch paths that sit above the
   slice engines — the metamorphic checker's engine/jobs invariance and
   the Fig. 9 shmoo rendering.

   The per-engine equivalence battery (lane state, counters, verify /
   diffcheck / equiv verdict parity, measured-power bit-identity)
   lives in conformance.ml and runs from test_conformance.ml for the
   scalar-oracle/packed pair. *)

let lib = Library.n40 ()
let scl = Scl.create lib
let ctx = Ctx.of_parts lib scl
let check_bool = Alcotest.(check bool)

(* ---------------- metamorphic checking ---------------- *)

(* check_moves runs the packed engine; replaying every variant through
   the checker on the scalar oracle must give the same verdicts and
   check counts, and the result must not depend on the job count. *)
let test_check_moves_engine_and_jobs_invariant () =
  let spec = snd (List.hd Snapshot.canonical_specs) in
  let p1 = Metamorph.check_moves ~jobs:1 ~seed:13 ctx spec in
  let p4 = Metamorph.check_moves ~jobs:4 ~seed:13 ctx spec in
  check_bool "all variants pass" true
    (List.for_all (fun r -> r.Metamorph.ok) p1);
  check_bool "scalar replay agrees" true
    (List.for_all2
       (fun (r : Metamorph.result) (name, cfg) ->
         let module D = Diffcheck.Check (Oracle.Scalar) in
         let o =
           D.check_macro ~seed:13 ~random_batches:1 (Macro_rtl.build lib cfg)
         in
         r.Metamorph.name = name
         && r.Metamorph.ok = (o.Diffcheck.failure = None)
         && r.Metamorph.detail = Printf.sprintf "%d checks" o.Diffcheck.checks)
       p1 (Metamorph.variants spec));
  check_bool "job-count-invariant" true (p1 = p4)

(* ---------------- Fig. 9 rendering ---------------- *)

let test_fmax_absent_vdd () =
  let t =
    {
      Fig9.crit_ps = 1000.0;
      vdds = [| 0.6; 0.9 |];
      freqs_mhz = [| 100.; 200. |];
      pass = [| [| false; false |]; [| true; true |] |];
    }
  in
  check_bool "absent vdd is None (no sentinel aliasing)" true
    (Fig9.fmax_mhz t ~vdd:0.75 = None);
  check_bool "no passing frequency is None" true
    (Fig9.fmax_mhz t ~vdd:0.6 = None);
  check_bool "highest passing frequency" true
    (Fig9.fmax_mhz t ~vdd:0.9 = Some 200.)

let test_shmoo_render_snapshot () =
  let t = Fig9.shmoo lib.Library.node ~crit_ps:950.0 in
  let actual = Fig9.render t in
  let expected = Snapshot.load (Snapshot_dir.path "fig9.snap") in
  if expected <> actual then
    Alcotest.failf
      "Fig. 9 rendered grid drifted from test/snapshots/fig9.snap:\n\
       --- recorded\n\
       %s--- rendered\n\
       %s" expected actual

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "lane_parallel"
    [
      ( "metamorph",
        [
          Alcotest.test_case "check_moves engine/jobs-invariant" `Slow
            test_check_moves_engine_and_jobs_invariant;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "fmax on absent VDD rows" `Quick
            test_fmax_absent_vdd;
          Alcotest.test_case "rendered grid snapshot" `Quick
            test_shmoo_render_snapshot;
        ] );
    ]
