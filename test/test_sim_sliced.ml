(* Tests for the bit-sliced simulator: popcount, exhaustive word-level
   cell evaluation (all input combinations packed as lanes), directed
   lane edge tests at both ends of the 63-lane word, lane-count and
   lane-index validation including the full-width mask = -1 edge and a
   partial word, and packed power accounting.

   The cross-engine equivalence battery (per-lane state, counters,
   verify/diffcheck/equiv verdict parity) lives in conformance.ml and
   runs from test_conformance.ml for the scalar-oracle/packed pair. *)

let lib = Library.n40 ()
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The default engine: the 63-lane Sim_sliced slice. *)
module P = (val Engine.slice `Packed)

(* ---------------- popcount ---------------- *)

let naive_popcount w =
  let c = ref 0 in
  for i = 0 to Sys.int_size - 1 do
    if (w lsr i) land 1 = 1 then incr c
  done;
  !c

let test_popcount_directed () =
  check_int "0" 0 (Intmath.popcount 0);
  check_int "1" 1 (Intmath.popcount 1);
  check_int "-1 (all 63 bits)" Sys.int_size (Intmath.popcount (-1));
  check_int "max_int" (Sys.int_size - 1) (Intmath.popcount max_int);
  check_int "min_int (sign bit only)" 1 (Intmath.popcount min_int);
  check_int "0xF0F" 8 (Intmath.popcount 0xF0F)

let popcount_prop =
  QCheck.Test.make ~count:500 ~name:"popcount matches bit loop"
    QCheck.int (fun w -> Intmath.popcount w = naive_popcount w)

(* ---------------- word-level cell eval, exhaustive ---------------- *)

(* Every input combination of a cell packed as one lane each: lane [c]
   carries combination [c], so a single eval_word_into call checks the
   whole truth table against the scalar oracle's model. *)
let test_eval_word_exhaustive () =
  List.iter
    (fun k ->
      if not (Cell.is_sequential k || Cell.is_storage k) then begin
        let n = Cell.n_inputs k in
        let combos = 1 lsl n in
        assert (combos <= Sim_sliced.word_lanes);
        let ins_w =
          Array.init n (fun p ->
              let w = ref 0 in
              for c = 0 to combos - 1 do
                w := !w lor (((c lsr p) land 1) lsl c)
              done;
              !w)
        in
        let outs_w = Array.make (Cell.n_outputs k) 0 in
        Cell.eval_word_into k ins_w outs_w;
        for c = 0 to combos - 1 do
          let ins = Array.init n (fun p -> (c lsr p) land 1 = 1) in
          let outs = Sim.eval_cell k ins in
          Array.iteri
            (fun o expected ->
              check_bool
                (Printf.sprintf "%s combo %d out %d" (Cell.kind_to_string k)
                   c o)
                expected
                ((outs_w.(o) lsr c) land 1 = 1))
            outs
        done
      end)
    Cell.all_kinds

(* ---------------- directed lane edge tests ---------------- *)

(* A 3-bit inverter: lane 0 and lane 62 carry distinct payloads, every
   other lane idles at zero — the two ends of the word must not leak
   into each other or into the middle. *)
let inverter_harness () =
  let ir = Ir.create () in
  let a = Ir.new_bus ir 3 in
  Ir.add_input ir "a" a;
  let out =
    Array.map
      (fun net ->
        let o = Ir.new_net ir in
        ignore (Ir.add ir Cell.Inv ~ins:[| net |] ~outs:[| o |]);
        o)
      a
  in
  Ir.add_output ir "out" out;
  Ir.freeze ir

let test_lane_edges () =
  let d = inverter_harness () in
  let psim = P.create d in
  check_int "full width" Sys.int_size (P.lanes_of psim);
  let vs = Array.make P.max_lanes 0 in
  vs.(0) <- 5;
  vs.(P.max_lanes - 1) <- 2;
  P.set_bus_lanes psim "a" vs;
  P.eval psim;
  check_int "lane 0" (lnot 5 land 7) (P.read_bus_lane psim "out" 0);
  check_int "lane 62"
    (lnot 2 land 7)
    (P.read_bus_lane psim "out" (P.max_lanes - 1));
  check_int "idle middle lane" 7 (P.read_bus_lane psim "out" 31);
  (* toggle accounting is exact per lane: only the two driven lanes
     toggled bits 0 and 2 of the input bus *)
  let bus = Ir.input_bus d.Ir.src "a" in
  check_int "bit0 toggles (only lane 0's 0b101)" 1
    (P.toggles psim).(bus.(0));
  check_int "bit1 toggles (only lane 62's 0b010)" 1
    (P.toggles psim).(bus.(1));
  check_int "bit2 toggles (only lane 0's 0b101)" 1
    (P.toggles psim).(bus.(2));
  (* re-driving the identical pattern adds no toggles *)
  P.set_bus_lanes psim "a" vs;
  check_int "no toggle on identical drive" 1 (P.toggles psim).(bus.(0))

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects_with f expected =
  try
    f ();
    `Accepted
  with Invalid_argument msg ->
    if contains msg expected then `Rejected_as_expected
    else `Wrong_message msg

let check_rejects name f expected =
  match rejects_with f expected with
  | `Rejected_as_expected -> ()
  | `Accepted -> Alcotest.failf "%s: accepted" name
  | `Wrong_message msg ->
      Alcotest.failf "%s: message %S lacks %S" name msg expected

let test_lane_count_validation () =
  let d = inverter_harness () in
  (* the rejection message reports the caller's requested width and the
     engine's valid range *)
  check_rejects "0 lanes rejected"
    (fun () -> ignore (P.create ~n_lanes:0 d))
    (Printf.sprintf "requested 0 lanes, valid range is 1..%d" P.max_lanes);
  (* the simulator itself (P.create) caps a slice at one word *)
  check_rejects "64 lanes rejected"
    (fun () -> ignore (Sim_sliced.create ~n_lanes:64 d))
    "requested 64 lanes, valid range is 1..63";
  let one = P.create ~n_lanes:1 d in
  check_int "single lane" 1 (P.lanes_of one)

(* Explicitly requesting all 63 lanes takes the mask = -1 branch (all 63
   bits set, which is the all-ones native int): every lane must drive,
   read back and account toggles independently — in particular lane 62,
   whose bit reaches the word's sign position. *)
let test_full_width_mask_edge () =
  let d = inverter_harness () in
  let psim = P.create ~n_lanes:P.max_lanes d in
  check_int "explicit full width" Sys.int_size (P.lanes_of psim);
  let vs = Array.init P.max_lanes (fun l -> l land 7) in
  P.set_bus_lanes psim "a" vs;
  P.eval psim;
  for l = 0 to P.max_lanes - 1 do
    check_int
      (Printf.sprintf "lane %d inverted" l)
      (lnot vs.(l) land 7)
      (P.read_bus_lane psim "out" l)
  done;
  (* per-bit toggles: bit [b] of the input bus toggled once in every
     lane whose payload has bit [b] set *)
  let bus = Ir.input_bus d.Ir.src "a" in
  Array.iteri
    (fun b net ->
      let expected =
        Array.fold_left
          (fun acc v -> acc + ((v lsr b) land 1))
          0 vs
      in
      check_int
        (Printf.sprintf "bit %d toggles" b)
        expected
        (P.toggles psim).(net))
    bus

(* Per-lane register / SRAM snapshots reject a lane outside the active
   range, like every other per-lane read: on a full 63-lane word, lane 63
   would otherwise shift past the word, and on a partial word (40 lanes)
   lanes 40 and 62 would read masked-off bits as [false]. *)
let test_state_lane_bounds () =
  let d = inverter_harness () in
  let rejects name f =
    match f () with
    | (_ : bool array) -> Alcotest.failf "%s: accepted" name
    | exception Assert_failure _ -> ()
  in
  List.iter
    (fun (n_lanes, bad) ->
      let sim = Sim_sliced.create ~n_lanes d in
      check_int
        (Printf.sprintf "lane %d of %d: seq slots" (n_lanes - 1) n_lanes)
        (Ir.n_insts d)
        (Array.length (Sim_sliced.seq_state_lane sim (n_lanes - 1)));
      List.iter
        (fun lane ->
          rejects
            (Printf.sprintf "seq_state_lane %d of %d" lane n_lanes)
            (fun () -> Sim_sliced.seq_state_lane sim lane);
          rejects
            (Printf.sprintf "storage_state_lane %d of %d" lane n_lanes)
            (fun () -> Sim_sliced.storage_state_lane sim lane))
        bad)
    [ (Sim_sliced.word_lanes, [ -1; Sim_sliced.word_lanes ]);
      (40, [ 40; 62 ]) ]

(* ---------------- packed power accounting ---------------- *)

(* With a single lane, the packed power path must reproduce the scalar
   oracle's estimate bit for bit: same seed, same weight and input
   draws, same counters, same effective cycles. *)
let test_packed_power_single_lane () =
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let agree prefix (scalar : Power.report) (packed : Power.report) =
    check_bool (prefix ^ "total power") true
      (same scalar.total_w packed.total_w);
    check_bool (prefix ^ "dynamic power") true
      (same scalar.dynamic_w packed.dynamic_w);
    check_bool (prefix ^ "clock power") true
      (same scalar.clock_w packed.clock_w);
    check_bool (prefix ^ "energy/cycle") true
      (same scalar.energy_per_cycle_fj packed.energy_per_cycle_fj)
  in
  (* across weight copies and FP alignment *)
  List.iter
    (fun (name, rows, mcr, input_prec, weight_prec, macs) ->
      let m =
        Macro_rtl.build lib
          (Macro_rtl.default ~rows ~cols:16 ~mcr ~input_prec ~weight_prec)
      in
      let scalar =
        Oracle.measure_power ~seed:0xACC ~n_lanes:1 lib m ~freq_hz:5e8
          ~vdd:0.9 ~input_density:0.5 ~weight_density:0.5 ~macs
      in
      let packed =
        Design_point.measure_power ~seed:0xACC lib m ~freq_hz:5e8 ~vdd:0.9
          ~input_density:0.5 ~weight_density:0.5 ~macs
      in
      agree (name ^ ": ") scalar packed)
    [
      ("INT4 MCR 1", 8, 1, Precision.int4, Precision.int4, 3);
      ("INT8 MCR 1", 16, 1, Precision.int8, Precision.int8, 4);
      ("INT8 MCR 2", 16, 2, Precision.int8, Precision.int8, 4);
      ("FP8 MCR 2", 16, 2, Precision.fp8, Precision.int8, 4);
    ]

(* full-width Monte Carlo run: sane report, lanes× sample mass *)
let test_packed_power_full_width () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:8 ~cols:16 ~mcr:1
         ~input_prec:Precision.int4 ~weight_prec:Precision.int4)
  in
  let p =
    Design_point.measure_power ~n_lanes:P.max_lanes lib m ~freq_hz:5e8
      ~vdd:0.9 ~input_density:0.5 ~weight_density:0.5 ~macs:3
  in
  check_bool "positive total" true (p.Power.total_w > 0.0);
  check_bool "dynamic dominated sanity" true
    (p.Power.dynamic_w > 0.0 && p.Power.clock_w > 0.0)

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "sim_sliced"
    [
      ( "popcount",
        [
          Alcotest.test_case "directed" `Quick test_popcount_directed;
          QCheck_alcotest.to_alcotest popcount_prop;
        ] );
      ( "eval_word",
        [
          Alcotest.test_case "exhaustive truth tables vs scalar eval" `Quick
            test_eval_word_exhaustive;
        ] );
      ( "lane_edges",
        [
          Alcotest.test_case "lane 0 / lane 62 edges" `Quick test_lane_edges;
          Alcotest.test_case "lane count validation" `Quick
            test_lane_count_validation;
          Alcotest.test_case "full-width mask = -1 edge" `Quick
            test_full_width_mask_edge;
          Alcotest.test_case "state snapshots reject out-of-range lanes"
            `Quick test_state_lane_bounds;
        ] );
      ( "power",
        [
          Alcotest.test_case "single-lane packed == scalar estimate" `Quick
            test_packed_power_single_lane;
          Alcotest.test_case "full-width Monte Carlo report" `Quick
            test_packed_power_full_width;
        ] );
    ]
