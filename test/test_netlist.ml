(* Tests for the netlist IR, builder combinators, simulator and the
   Verilog writer. Builder arithmetic is validated exhaustively or by
   randomized property against native integer arithmetic. *)

let lib = Library.n40 ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* helper: build a combinational design with one input bus per named
   operand, evaluate it on concrete values, read the output bus *)
let comb_harness ~inputs ~build =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let buses =
    List.map
      (fun (name, width) ->
        let b = Ir.new_bus ir width in
        Ir.add_input ir name b;
        (name, b))
      inputs
  in
  let out = build c (fun name -> List.assoc name buses) in
  Ir.add_output ir "out" out;
  let d = Ir.freeze ir in
  let sim = Sim.create d in
  fun values ->
    List.iter (fun (name, v) -> Sim.set_bus sim name v) values;
    Sim.eval sim;
    Sim.read_bus sim "out"

(* ---------------- IR validation ---------------- *)

let test_multiple_drivers_rejected () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let o = Builder.inv c a in
  (* second driver onto o *)
  ignore (Ir.add ir Cell.Buf ~ins:[| a |] ~outs:[| o |]);
  check_bool "raises on the doubly driven net" true
    (try
       ignore (Ir.freeze ir);
       false
     with Ir.Multiple_drivers net -> net = o)

let test_comb_cycle_rejected () =
  let ir = Ir.create () in
  let a = Ir.new_net ir and b = Ir.new_net ir in
  ignore (Ir.add ir Cell.Inv ~ins:[| a |] ~outs:[| b |]);
  ignore (Ir.add ir Cell.Inv ~ins:[| b |] ~outs:[| a |]);
  check_bool "raises on the first stuck instance" true
    (try
       ignore (Ir.freeze ir);
       false
     with Ir.Combinational_cycle i -> i = 0);
  (* a cycle behind a clean inverter: the payload is the lowest-numbered
     combinational instance left with unresolved inputs *)
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir and z = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let x = Builder.inv c a in
  let y = Ir.new_net ir in
  ignore (Ir.add ir Cell.Nand2 ~ins:[| x; z |] ~outs:[| y |]);
  ignore (Ir.add ir Cell.Inv ~ins:[| y |] ~outs:[| z |]);
  ignore (Builder.inv c z);
  check_bool "raises on instance 1" true
    (try
       ignore (Ir.freeze ir);
       false
     with Ir.Combinational_cycle i -> i = 1)

let test_register_feedback_allowed () =
  (* a register in the loop makes it legal *)
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let q = Ir.new_net ir in
  let d = Builder.inv c q in
  Builder.dff_into c ~d ~q;
  Ir.add_output ir "q" [| q |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  (* toggles every cycle *)
  Sim.step sim;
  let v1 = Sim.read_bus sim "q" in
  Sim.step sim;
  let v2 = Sim.read_bus sim "q" in
  check_bool "oscillates" true (v1 <> v2)

(* The [Invalid_argument] message [f ()] raises, or [None]. *)
let invalid_message f =
  try
    f ();
    None
  with Invalid_argument msg -> Some msg

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_message name ~parts msg =
  match msg with
  | None -> Alcotest.failf "%s: no Invalid_argument" name
  | Some msg ->
      List.iter
        (fun part ->
          check_bool (Printf.sprintf "%s: %S names %S" name msg part) true
            (contains msg part))
        parts

let test_arity_checked () =
  let ir = Ir.create () in
  ignore (Ir.add ir Cell.Inv ~ins:[| 0 |] ~outs:[| Ir.new_net ir |]);
  check_message "bad arity" ~parts:[ "instance 1"; "NAND2" ]
    (invalid_message (fun () ->
         ignore (Ir.add ir Cell.Nand2 ~ins:[| 0 |] ~outs:[| Ir.new_net ir |])))

(* A pin on a net [freeze] cannot index: the message names the instance,
   its kind, the pin and the net, and the net count. *)
let test_net_out_of_range () =
  List.iter
    (fun (name, bad_in, bad_out, parts) ->
      let ir = Ir.create () in
      let a = Ir.new_net ir in
      ignore (Ir.add ir Cell.Inv ~ins:[| a |] ~outs:[| Ir.new_net ir |]);
      let y = Ir.new_net ir in
      let ins = [| a; (if bad_in then 99 else a) |] in
      let outs = [| (if bad_out then 40 else y) |] in
      ignore (Ir.add ir Cell.Nand2 ~ins ~outs);
      check_message name ~parts
        (invalid_message (fun () -> ignore (Ir.freeze ir))))
    [
      ("input", true, false,
       [ "instance 1"; "NAND2"; "input pin 1"; "net 99"; "n_nets = 5" ]);
      ("output", false, true,
       [ "instance 1"; "NAND2"; "output pin 0"; "net 40"; "n_nets = 5" ]);
    ]

let test_negative_net () =
  List.iter
    (fun (name, ins, outs, parts) ->
      let ir = Ir.create () in
      let a = Ir.new_net ir and y = Ir.new_bus ir 2 in
      ignore (Ir.add ir Cell.Fa ~ins:(ins a) ~outs:(outs y));
      check_message name ~parts
        (invalid_message (fun () -> ignore (Ir.freeze ir))))
    [
      ( "input",
        (fun a -> [| a; -1; a |]),
        Fun.id,
        [ "instance 0"; "FA"; "input pin 1"; "net -1"; "n_nets = 5" ] );
      ( "output",
        (fun a -> [| a; a; a |]),
        (fun y -> [| y.(0); -7 |]),
        [ "instance 0"; "FA"; "output pin 1"; "net -7"; "n_nets = 5" ] );
    ]

let test_fanout_load () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  for _ = 1 to 5 do
    ignore (Builder.inv c a)
  done;
  let d = Ir.freeze ir in
  let inv_cap = (Library.params lib Cell.Inv Cell.X1).Library.input_cap_ff in
  Alcotest.(check (float 1e-6)) "5 inverter loads" (5.0 *. inv_cap)
    (Ir.fanout_load d lib a)

(* ---------------- arithmetic builders ---------------- *)

let test_rca_add_exhaustive () =
  let run =
    comb_harness ~inputs:[ ("a", 4); ("b", 4) ] ~build:(fun c bus ->
        let sum, co = Builder.rca_add c (bus "a") (bus "b") Ir.const0 in
        Array.append sum [| co |])
  in
  for a = 0 to 15 do
    for b = 0 to 15 do
      check_int
        (Printf.sprintf "%d+%d" a b)
        (a + b)
        (run [ ("a", a); ("b", b) ])
    done
  done

let test_carry_select_exhaustive () =
  let run =
    comb_harness ~inputs:[ ("a", 6); ("b", 6) ] ~build:(fun c bus ->
        let sum, co =
          Builder.carry_select_add c (bus "a") (bus "b") Ir.const0 ~block:2
        in
        Array.append sum [| co |])
  in
  for a = 0 to 63 do
    for b = 0 to 63 do
      check_int "csel" (a + b) (run [ ("a", a); ("b", b) ])
    done
  done

let test_carry_select_with_cin () =
  let run =
    comb_harness ~inputs:[ ("a", 5); ("b", 5) ] ~build:(fun c bus ->
        let sum, co =
          Builder.carry_select_add c (bus "a") (bus "b") Ir.const1 ~block:3
        in
        Array.append sum [| co |])
  in
  for a = 0 to 31 do
    check_int "cin" (a + 17 + 1) (run [ ("a", a); ("b", 17) ])
  done

let signed_read v ~width = Intmath.sign_extend ~width v

let test_addsub_signed () =
  let width = 6 in
  let run =
    comb_harness ~inputs:[ ("a", 6); ("b", 6); ("s", 1) ]
      ~build:(fun c bus ->
        Builder.addsub_signed c ~sub:(bus "s").(0) (bus "a") (bus "b") ~width)
  in
  for a = -8 to 7 do
    for b = -8 to 7 do
      check_int "add" (a + b)
        (signed_read ~width (run [ ("a", a); ("b", b); ("s", 0) ]));
      check_int "sub" (a - b)
        (signed_read ~width (run [ ("a", a); ("b", b); ("s", 1) ]))
    done
  done

let test_sub_and_neg () =
  let width = 7 in
  let sub =
    comb_harness ~inputs:[ ("a", 7); ("b", 7) ] ~build:(fun c bus ->
        Builder.sub_signed c (bus "a") (bus "b") ~width)
  in
  let neg =
    comb_harness ~inputs:[ ("a", 7) ] ~build:(fun c bus ->
        Builder.neg_signed c (bus "a") ~width)
  in
  for a = -20 to 20 do
    check_int "neg" (-a) (signed_read ~width (neg [ ("a", a) ]));
    check_int "sub" (a - 13)
      (signed_read ~width (sub [ ("a", a); ("b", 13) ]))
  done

let test_barrel_shifter () =
  let run =
    comb_harness ~inputs:[ ("a", 8); ("s", 3) ] ~build:(fun c bus ->
        Builder.barrel_shift_right c (bus "a") (bus "s"))
  in
  for s = 0 to 7 do
    check_int "shift" (0xB5 lsr s) (run [ ("a", 0xB5); ("s", s) ])
  done

let test_greater_than () =
  let run =
    comb_harness ~inputs:[ ("a", 5); ("b", 5) ] ~build:(fun c bus ->
        [| Builder.greater_than c (bus "a") (bus "b") |])
  in
  for a = 0 to 31 do
    for b = 0 to 31 do
      check_int "gt" (if a > b then 1 else 0) (run [ ("a", a); ("b", b) ])
    done
  done

let test_equal_const_and_reduce () =
  let run =
    comb_harness ~inputs:[ ("a", 4) ] ~build:(fun c bus ->
        [| Builder.equal_const c (bus "a") 9; Builder.or_reduce c (bus "a") |])
  in
  for a = 0 to 15 do
    let v = run [ ("a", a) ] in
    check_int "eq9" (if a = 9 then 1 else 0) (v land 1);
    check_int "or" (if a <> 0 then 1 else 0) (v lsr 1)
  done

let test_mux_and_shift_wiring () =
  let run =
    comb_harness ~inputs:[ ("a", 4); ("b", 4); ("s", 1) ]
      ~build:(fun c bus ->
        let m = Builder.mux_bus c ~sel:(bus "s").(0) (bus "a") (bus "b") in
        Builder.shift_left m 2 ~width:6)
  in
  check_int "mux0 shift" (5 lsl 2) (run [ ("a", 5); ("b", 9); ("s", 0) ]);
  check_int "mux1 shift" (9 lsl 2) (run [ ("a", 5); ("b", 9); ("s", 1) ])

(* ---------------- simulator semantics ---------------- *)

let test_dff_en_hold () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let d = Ir.new_net ir and en = Ir.new_net ir in
  Ir.add_input ir "d" [| d |];
  Ir.add_input ir "en" [| en |];
  let q = Builder.dff_en c ~en d in
  Ir.add_output ir "q" [| q |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  Sim.set_bus sim "d" 1;
  Sim.set_bus sim "en" 1;
  Sim.step sim;
  check_int "captured" 1 (Sim.read_bus sim "q");
  Sim.set_bus sim "d" 0;
  Sim.set_bus sim "en" 0;
  Sim.step sim;
  check_int "held" 1 (Sim.read_bus sim "q");
  Sim.set_bus sim "en" 1;
  Sim.step sim;
  check_int "released" 0 (Sim.read_bus sim "q")

let test_en_cycles_counted () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let d = Ir.new_net ir and en = Ir.new_net ir in
  Ir.add_input ir "d" [| d |];
  Ir.add_input ir "en" [| en |];
  ignore (Builder.dff_en c ~en d);
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  Sim.set_bus sim "en" 1;
  Sim.step sim;
  Sim.step sim;
  Sim.set_bus sim "en" 0;
  Sim.step sim;
  let i = dsg.Ir.seq.(0) in
  check_int "2 of 3 enabled" 2 sim.Sim.en_cycles.(i)

let test_toggle_counting () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let o = Builder.inv c a in
  Ir.add_output ir "o" [| o |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  for i = 0 to 9 do
    Sim.set_bus sim "a" (i mod 2);
    Sim.step sim
  done;
  (* a toggled 9 times after the first set; output follows *)
  check_bool "output toggles counted" true (sim.Sim.toggles.(o) >= 9)

let test_weight_storage () =
  let ir = Ir.create () in
  let out = Ir.new_net ir in
  ignore
    (Ir.add
       ~tag:(Ir.Weight_bit { row = 3; col = 5; copy = 1 })
       ir (Cell.Sram Cell.S6t) ~ins:[||] ~outs:[| out |]);
  Ir.add_output ir "w" [| out |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  Sim.set_weight sim ~row:3 ~col:5 ~copy:1 true;
  Sim.eval sim;
  check_int "stored" 1 (Sim.read_bus sim "w");
  check_int "one flip" 1 sim.Sim.weight_flips;
  Sim.set_weight sim ~row:3 ~col:5 ~copy:1 true;
  check_int "no flip on same value" 1 sim.Sim.weight_flips;
  check_bool "bad address" true
    (try
       Sim.set_weight sim ~row:0 ~col:0 ~copy:0 true;
       false
     with Invalid_argument _ -> true)

(* ---------------- stats + verilog ---------------- *)

let small_macro () =
  Macro_rtl.build lib
    (Macro_rtl.default ~rows:4 ~cols:4 ~mcr:1 ~input_prec:Precision.int4
       ~weight_prec:Precision.int4)

let test_stats () =
  let m = small_macro () in
  let st = Stats.of_design m.Macro_rtl.design lib in
  check_bool "area positive" true (st.Stats.area_um2 > 0.0);
  check_int "insts match" (Ir.n_insts m.Macro_rtl.design) st.Stats.n_insts;
  let total = List.fold_left (fun a (_, n) -> a + n) 0 st.Stats.by_kind in
  check_int "kind counts sum" st.Stats.n_insts total;
  let sub = Stats.area_by_subcircuit m.Macro_rtl.design lib in
  let sum = List.fold_left (fun a (_, x) -> a +. x) 0.0 sub in
  check_bool "subcircuit areas sum to total" true
    (Float.abs (sum -. st.Stats.area_um2) < 1e-6)

(* [Stats.of_design] as it was before dense per-kind counting: one
   polymorphic [Hashtbl] update per instance. [by_kind] (tie order
   included), area and leakage must match it exactly. *)
let reference_stats (d : Ir.design) =
  let tbl = Hashtbl.create 32 in
  let area = ref 0.0 and leak = ref 0.0 in
  for i = 0 to Ir.n_insts d - 1 do
    let kind = Ir.kind d i in
    let n = try Hashtbl.find tbl kind with Not_found -> 0 in
    Hashtbl.replace tbl kind (n + 1);
    let p = Library.params lib kind (Ir.drive d i) in
    area := !area +. p.Library.area_um2;
    leak := !leak +. p.Library.leakage_nw
  done;
  ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a),
    !area,
    !leak )

let test_stats_match_reference () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (name, spec) ->
      let p = Design_point.evaluate lib spec (Spec.initial_config spec) in
      let d = p.Design_point.macro.Macro_rtl.design in
      let st = Stats.of_design d lib in
      let by_kind, area, leak = reference_stats d in
      let render l =
        String.concat ","
          (List.map
             (fun (k, n) -> Printf.sprintf "%s:%d" (Cell.kind_to_string k) n)
             l)
      in
      Alcotest.(check string) (name ^ " by_kind") (render by_kind)
        (render st.Stats.by_kind);
      check_bool (name ^ " area bits") true (bits area = bits st.Stats.area_um2);
      check_bool (name ^ " leakage bits") true
        (bits leak = bits st.Stats.leakage_nw))
    Snapshot.canonical_specs;
  (* every kind once or twice, first seen in a shuffled order: wide ties
     whose order is the table's bucket and insertion order *)
  let rng = Random.State.make [| 19 |] in
  for trial = 1 to 8 do
    let kinds = Array.of_list Cell.all_kinds in
    for i = Array.length kinds - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = kinds.(i) in
      kinds.(i) <- kinds.(j);
      kinds.(j) <- t
    done;
    let t = Ir.create () in
    let add k =
      ignore
        (Ir.add t k
           ~ins:(Array.make (Cell.n_inputs k) Ir.const0)
           ~outs:(Ir.new_bus t (Cell.n_outputs k)))
    in
    Array.iter add kinds;
    Array.iter (fun k -> if Random.State.bool rng then add k) kinds;
    let d = Ir.freeze t in
    let by_kind, _, _ = reference_stats d in
    check_bool
      (Printf.sprintf "shuffled kinds %d: by_kind" trial)
      true
      (by_kind = (Stats.of_design d lib).Stats.by_kind)
  done

let test_verilog_writer () =
  let m = small_macro () in
  let v = Verilog.to_string m.Macro_rtl.design in
  let contains = contains v in
  check_bool "module header" true (contains "module dcim_macro");
  check_bool "endmodule" true (contains "endmodule");
  check_bool "instantiates srams" true (contains "SRAM6T_X1");
  check_bool "clock port" true (contains ".CK(clk)");
  check_bool "result port" true (contains "result0")

let test_sim_determinism () =
  (* two simulators over the same design and stimulus agree exactly,
     including statistics *)
  let mk () =
    let m = small_macro () in
    let sim = Sim.create m.Macro_rtl.design in
    let rng = Rng.create 77 in
    let w = Testbench.random_weights rng m ~density:0.5 in
    Testbench.load_weights m sim ~copy:0 w;
    Testbench.run_stream m sim ~rng ~macs:3 ~input_density:0.5;
    (Array.fold_left ( + ) 0 sim.Sim.toggles, sim.Sim.cycles)
  in
  let t1, c1 = mk () and t2, c2 = mk () in
  check_int "same toggles" t1 t2;
  check_int "same cycles" c1 c2

let test_reset_stats () =
  let m = small_macro () in
  let sim = Sim.create m.Macro_rtl.design in
  let rng = Rng.create 3 in
  Testbench.load_weights m sim ~copy:0
    (Testbench.random_weights rng m ~density:0.5);
  Testbench.run_stream m sim ~rng ~macs:2 ~input_density:0.5;
  check_bool "activity happened" true
    (Array.exists (fun t -> t > 0) sim.Sim.toggles);
  Sim.reset_stats sim;
  check_int "cycles cleared" 0 sim.Sim.cycles;
  check_bool "toggles cleared" true
    (Array.for_all (fun t -> t = 0) sim.Sim.toggles);
  check_int "writes cleared" 0 sim.Sim.weight_flips

let test_missing_bus () =
  let m = small_macro () in
  let sim = Sim.create m.Macro_rtl.design in
  check_bool "unknown bus rejected" true
    (try
       Sim.set_bus sim "no_such_bus" 1;
       false
     with Invalid_argument _ -> true)

(* ---------------- CSR fanout + dirty-flag settle ---------------- *)

(* small but complete macros: every precision class, MCR and row count
   the fuzzer draws (built once, shared by the properties below) *)
let fuzz_macros =
  lazy
    (Array.of_list
       (List.map
          (fun s -> Macro_rtl.build lib (Spec.initial_config s))
          (Specgen.generate ~seed:17 ~count:8)))

let test_csr_fanout () =
  (* the CSR segments list exactly the (instance, pin) incidences read
     from each instance's input pins, in descending (instance, pin)
     order *)
  Array.iter
    (fun (m : Macro_rtl.t) ->
      let d = m.Macro_rtl.design in
      let start = d.Ir.fanout_start in
      check_int "start length" (d.Ir.n_nets + 1) (Array.length start);
      check_int "first segment at 0" 0 start.(0);
      check_int "last segment ends the array" (Array.length d.Ir.fanout)
        start.(d.Ir.n_nets);
      let expected = Array.make d.Ir.n_nets [] in
      for i = 0 to Ir.n_insts d - 1 do
        Array.iter
          (fun net -> expected.(net) <- i :: expected.(net))
          (Ir.ins d i)
      done;
      for net = 0 to d.Ir.n_nets - 1 do
        check_bool "segment non-negative" true (start.(net) <= start.(net + 1));
        check_bool
          (Printf.sprintf "net %d consumers" net)
          true
          (Array.to_list
             (Array.sub d.Ir.fanout start.(net) (Ir.fanout_count d net))
          = expected.(net))
      done)
    (Lazy.force fuzz_macros)

let test_driver_matches_scan () =
  Array.iter
    (fun (m : Macro_rtl.t) ->
      let d = m.Macro_rtl.design in
      let expected = Array.make d.Ir.n_nets None in
      for i = 0 to Ir.n_insts d - 1 do
        Array.iteri (fun o net -> expected.(net) <- Some (i, o)) (Ir.outs d i)
      done;
      for net = 0 to d.Ir.n_nets - 1 do
        check_bool
          (Printf.sprintf "net %d driver" net)
          true
          (Ir.driver d net = expected.(net))
      done)
    (Lazy.force fuzz_macros)

(* Kahn's algorithm the textbook way — a [Queue] seeded with the
   zero-in-degree combinational instances in ascending order, consumers
   visited by output pin and then CSR order — which is the evaluation
   order {!Ir.freeze} must reproduce exactly. *)
let reference_comb_order (d : Ir.design) =
  let is_comb i =
    let k = Ir.kind d i in
    (not (Cell.is_sequential k)) && not (Cell.is_storage k)
  in
  let indeg = Array.make (Ir.n_insts d) 0 in
  for i = 0 to Ir.n_insts d - 1 do
    if is_comb i then
      Array.iter
        (fun net ->
          match Ir.driver d net with
          | Some (j, _) when is_comb j -> indeg.(i) <- indeg.(i) + 1
          | Some _ | None -> ())
        (Ir.ins d i)
  done;
  let queue = Queue.create () and order = ref [] in
  Array.iteri (fun i n -> if is_comb i && n = 0 then Queue.add i queue) indeg;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := i :: !order;
    Array.iter
      (fun net ->
        for k = d.Ir.fanout_start.(net) to d.Ir.fanout_start.(net + 1) - 1 do
          let j = d.Ir.fanout.(k) in
          if is_comb j then begin
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then Queue.add j queue
          end
        done)
      (Ir.outs d i)
  done;
  Array.of_list (List.rev !order)

let test_comb_order_is_kahn_fifo () =
  Array.iter
    (fun (m : Macro_rtl.t) ->
      let d = m.Macro_rtl.design in
      check_bool "same order" true (d.Ir.comb_order = reference_comb_order d))
    (Lazy.force fuzz_macros)

let test_weight_index_round_trip () =
  Array.iter
    (fun (m : Macro_rtl.t) ->
      let d = m.Macro_rtl.design in
      let n_weights = ref 0 in
      Array.iter
        (fun i ->
          match Ir.tag d i with
          | Ir.Weight_bit { row; col; copy } ->
              incr n_weights;
              check_int "round trip" i (Ir.weight_inst d ~row ~col ~copy)
          | Ir.Plain | Ir.Pipeline_reg _ | Ir.Subcircuit _ -> ())
        d.Ir.storage;
      check_bool "has weights" true (!n_weights > 0);
      (* every in-range address names its own cell or none *)
      let addressed = ref 0 in
      for row = 0 to d.Ir.weight_rows - 1 do
        for col = 0 to d.Ir.weight_cols - 1 do
          for copy = 0 to d.Ir.weight_copies - 1 do
            let i = Ir.weight_inst d ~row ~col ~copy in
            if i >= 0 then begin
              incr addressed;
              check_bool "addressed cell carries the address" true
                (Ir.tag d i = Ir.Weight_bit { row; col; copy })
            end
          done
        done
      done;
      check_int "one address per weight bit" !n_weights !addressed)
    (Lazy.force fuzz_macros)

(* Bus lookup by name: a repeated name resolves to the newest bus while
   both stay in declaration order, and an unknown name is a one-line
   [Invalid_argument]. *)
let test_bus_lookup () =
  let ir = Ir.create () in
  let old_a = Ir.new_bus ir 2 and new_a = Ir.new_bus ir 3 in
  let b = Ir.new_bus ir 1 and o = Ir.new_bus ir 1 in
  Ir.add_input ir "a" old_a;
  Ir.add_input ir "b" b;
  Ir.add_input ir "a" new_a;
  Ir.add_output ir "o" o;
  check_bool "newest input wins" true (Ir.input_bus ir "a" == new_a);
  check_bool "other input found" true (Ir.input_bus ir "b" == b);
  check_bool "output found" true (Ir.output_bus ir "o" == o);
  check_bool "declaration order kept" true
    (List.map fst (Ir.inputs ir) = [ "a"; "b"; "a" ]
    && snd (List.hd (Ir.inputs ir)) == old_a);
  let message f =
    match f () with
    | (_ : Ir.net array) -> "no exception"
    | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string)
    "unknown input" "Ir: no bus named o"
    (message (fun () -> Ir.input_bus ir "o"));
  Alcotest.(check string)
    "unknown output" "Ir: no bus named a"
    (message (fun () -> Ir.output_bus ir "a"))

let test_bad_weight_address () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:4 ~cols:8 ~mcr:2 ~input_prec:Precision.int4
         ~weight_prec:Precision.int4)
  in
  let d = m.Macro_rtl.design in
  let rows = d.Ir.weight_rows and cols = d.Ir.weight_cols in
  let copies = d.Ir.weight_copies in
  check_bool "rows x cols x copies" true (rows > 1 && cols > 1 && copies > 1);
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  let bad =
    [
      (-1, 0, 0); (0, -1, 0); (0, 0, -1); (rows, 0, 0); (0, cols, 0);
      (0, 0, copies); (0, cols, copies - 1); (rows - 1, 0, copies);
      (max_int, max_int, max_int); (min_int, 0, 0);
    ]
  in
  let sim = Sim.create d and sliced = Sim_sliced.create d in
  List.iter
    (fun (row, col, copy) ->
      let name = Printf.sprintf "(%d,%d,%d)" row col copy in
      check_int (name ^ " unaddressed") (-1) (Ir.weight_inst d ~row ~col ~copy);
      check_bool (name ^ " Sim.set_weight") true
        (raises (fun () -> Sim.set_weight sim ~row ~col ~copy true));
      check_bool (name ^ " Sim_sliced.write_weight") true
        (raises (fun () ->
             Sim_sliced.write_weight sliced ~row ~col ~copy (-1))))
    bad;
  (* no write reached a cell, so nothing was charged or stored *)
  check_int "scalar writes" 0 sim.Sim.weight_writes;
  check_bool "scalar cells untouched" true
    (Array.for_all not sim.Sim.storage_state);
  check_int "sliced writes" 0 sliced.Sim_sliced.weight_writes;
  check_bool "sliced cells untouched" true
    (Array.for_all (fun w -> w = 0) sliced.Sim_sliced.storage_state);
  (* a negative address cannot be indexed, so freeze refuses it *)
  let ir = Ir.create () in
  ignore
    (Ir.add
       ~tag:(Ir.Weight_bit { row = 0; col = -1; copy = 0 })
       ir (Cell.Sram Cell.S6t) ~ins:[||] ~outs:[| Ir.new_net ir |]);
  check_bool "negative tag rejected at freeze" true
    (raises (fun () -> ignore (Ir.freeze ir)));
  (* a design without weights has no address at all *)
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  Ir.add_output ir "y" [| Builder.inv c a |];
  let plain = Ir.freeze ir in
  check_bool "no weights: Sim.set_weight" true
    (raises (fun () ->
         Sim.set_weight (Sim.create plain) ~row:0 ~col:0 ~copy:0 true));
  check_bool "no weights: Sim_sliced.write_weight" true
    (raises (fun () ->
         Sim_sliced.write_weight
           (Sim_sliced.create plain)
           ~row:0 ~col:0 ~copy:0 1))

(* The reference settle: every combinational cell re-evaluated on every
   [eval], with {!Sim}'s counter semantics (toggles on value changes,
   enable duty per Dff_en, flips per storage write). *)
module Full_sweep = struct
  type t = {
    d : Ir.design;
    values : bool array;
    seq_state : bool array;
    storage_state : bool array;
    toggles : int array;
    en_cycles : int array;
    mutable weight_flips : int;
  }

  let create (d : Ir.design) =
    let n = max (Ir.n_insts d) 1 in
    let values = Array.make d.Ir.n_nets false in
    values.(Ir.const1) <- true;
    {
      d;
      values;
      seq_state = Array.make n false;
      storage_state = Array.make n false;
      toggles = Array.make d.Ir.n_nets 0;
      en_cycles = Array.make n 0;
      weight_flips = 0;
    }

  let set_net t net v =
    if t.values.(net) <> v then begin
      t.values.(net) <- v;
      t.toggles.(net) <- t.toggles.(net) + 1
    end

  let set_bus t name v =
    Array.iteri
      (fun i net -> set_net t net ((v asr i) land 1 = 1))
      (Ir.input_bus t.d.Ir.src name)

  let set_weight t i bit =
    if t.storage_state.(i) <> bit then begin
      t.storage_state.(i) <- bit;
      t.weight_flips <- t.weight_flips + 1
    end;
    set_net t (Ir.out_pin t.d i 0) bit

  let eval t =
    Array.iter
      (fun i ->
        let outs =
          Cell.eval (Ir.kind t.d i)
            (Array.map (fun n -> t.values.(n)) (Ir.ins t.d i))
        in
        Array.iteri (fun o net -> set_net t net outs.(o)) (Ir.outs t.d i))
      t.d.Ir.comb_order

  let clock t =
    let next =
      Array.map
        (fun i ->
          match Ir.kind t.d i with
          | Cell.Dff_en ->
              if t.values.(Ir.in_pin t.d i 1) then begin
                t.en_cycles.(i) <- t.en_cycles.(i) + 1;
                t.values.(Ir.in_pin t.d i 0)
              end
              else t.seq_state.(i)
          | _ -> t.values.(Ir.in_pin t.d i 0))
        t.d.Ir.seq
    in
    Array.iteri
      (fun idx i ->
        t.seq_state.(i) <- next.(idx);
        set_net t (Ir.out_pin t.d i 0) next.(idx))
      t.d.Ir.seq

  let reset_stats t =
    Array.fill t.toggles 0 (Array.length t.toggles) 0;
    Array.fill t.en_cycles 0 (Array.length t.en_cycles) 0;
    t.weight_flips <- 0
end

let qtest_settle_matches_full_sweep =
  QCheck.Test.make ~name:"dirty-flag settle = full sweep" ~count:40
    QCheck.(pair (int_bound 7) (int_bound 1_000_000))
    (fun (which, seed) ->
      let m = (Lazy.force fuzz_macros).(which) in
      let d = m.Macro_rtl.design in
      let sim = Sim.create d and full = Full_sweep.create d in
      let rng = Rng.create seed in
      let buses = Array.of_list (Ir.inputs d.Ir.src) in
      let weights =
        Array.of_list
          (List.filter_map
             (fun i ->
               match Ir.tag d i with
               | Ir.Weight_bit { row; col; copy } -> Some (i, row, col, copy)
               | _ -> None)
             (Array.to_list d.Ir.storage))
      in
      let agree () =
        sim.Sim.values = full.Full_sweep.values
        && sim.Sim.toggles = full.Full_sweep.toggles
        && sim.Sim.en_cycles = full.Full_sweep.en_cycles
        && sim.Sim.weight_flips = full.Full_sweep.weight_flips
      in
      let ok = ref true in
      for _ = 1 to 300 do
        (match Rng.int rng 10 with
        | 0 | 1 | 2 ->
            (* inputs and control pins alike: every primary input bus *)
            let name, bus = buses.(Rng.int rng (Array.length buses)) in
            let v = Rng.int rng (1 lsl min 30 (Array.length bus)) in
            Sim.set_bus sim name v;
            Full_sweep.set_bus full name v
        | 3 when Array.length weights > 0 ->
            let i, row, col, copy =
              weights.(Rng.int rng (Array.length weights))
            in
            let bit = Rng.bit rng ~p1:0.5 = 1 in
            Sim.set_weight sim ~row ~col ~copy bit;
            Full_sweep.set_weight full i bit
        | 4 ->
            Sim.eval sim;
            Full_sweep.eval full
        | 5 when Rng.int rng 8 = 0 ->
            Sim.reset_stats sim;
            Full_sweep.reset_stats full
        | _ ->
            Sim.step sim;
            Full_sweep.eval full;
            Full_sweep.clock full);
        ok := !ok && agree ()
      done;
      !ok)

let qtest_rca_random =
  QCheck.Test.make ~name:"rca 12-bit random" ~count:200
    QCheck.(pair (int_range 0 4095) (int_range 0 4095))
    (fun (a, b) ->
      let run =
        comb_harness ~inputs:[ ("a", 12); ("b", 12) ] ~build:(fun c bus ->
            let sum, co = Builder.rca_add c (bus "a") (bus "b") Ir.const0 in
            Array.append sum [| co |])
      in
      run [ ("a", a); ("b", b) ] = a + b)

(* ---------------- column storage ---------------- *)

(* A random acyclic netlist through [Ir.add]: every kind (multi-output
   cells included), inputs drawn from earlier nets, fresh output nets,
   and every tag form — weight addresses both packed into the tag column
   and, past 2^20 (on cells [freeze] does not index), interned. Each
   instance reads back through the accessors exactly as it was added, at
   drive X1, and takes any drive [Ir.set_drive] gives it. *)
let qtest_columns_round_trip =
  QCheck.Test.make ~name:"Ir.add columns round trip" ~count:100
    QCheck.(pair (int_range 0 150) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let ir = Ir.create () in
      let pool = ref [| Ir.const0; Ir.const1 |] in
      let inputs = Ir.new_bus ir 4 in
      Ir.add_input ir "in" inputs;
      pool := Array.append !pool inputs;
      let kinds = Array.of_list Cell.all_kinds in
      let names = [| "adder_tree"; "mulmux"; "ofu" |] in
      let added =
        List.init n (fun _ ->
            let kind = kinds.(Rng.int rng (Array.length kinds)) in
            let ins =
              Array.init (Cell.n_inputs kind) (fun _ ->
                  !pool.(Rng.int rng (Array.length !pool)))
            in
            let outs = Ir.new_bus ir (Cell.n_outputs kind) in
            let tag =
              match Rng.int rng 5 with
              | 0 -> Ir.Plain
              | 1 -> Ir.Subcircuit names.(Rng.int rng 3)
              | 2 -> Ir.Pipeline_reg names.(Rng.int rng 3)
              | 3 ->
                  Ir.Weight_bit
                    {
                      row = Rng.int rng 64;
                      col = Rng.int rng 64;
                      copy = Rng.int rng 4;
                    }
              | _ when not (Cell.is_storage kind) ->
                  (* off-grid: [freeze] indexes storage cells only *)
                  Ir.Weight_bit
                    {
                      row = (1 lsl 20) + Rng.int rng 8;
                      col = 0;
                      copy = 1 lsl 21;
                    }
              | _ -> Ir.Weight_bit { row = 0; col = 0; copy = 0 }
            in
            let id = Ir.add ~tag ir kind ~ins ~outs in
            pool := Array.append !pool outs;
            (id, kind, ins, outs, tag))
      in
      let d = Ir.freeze ir in
      Ir.n_insts d = n
      && List.for_all
           (fun (i, kind, ins, outs, tag) ->
             let weight =
               match tag with
               | Ir.Weight_bit { row; col; copy } ->
                   Ir.is_weight d i && Ir.weight_row d i = row
                   && Ir.weight_col d i = col && Ir.weight_copy d i = copy
               | Ir.Plain | Ir.Pipeline_reg _ | Ir.Subcircuit _ ->
                   not (Ir.is_weight d i)
             in
             Ir.kind d i = kind
             && Ir.drive d i = Cell.X1
             && Ir.ins d i = ins && Ir.outs d i = outs
             && Ir.n_ins d i = Array.length ins
             && Ir.n_outs d i = Array.length outs
             && Array.for_all Fun.id
                  (Array.mapi (fun p net -> Ir.in_pin d i p = net) ins)
             && Array.for_all Fun.id
                  (Array.mapi (fun o net -> Ir.out_pin d i o = net) outs)
             && Ir.tag d i = tag
             && Ir.label d i = Ir.tag_label tag
             && weight)
           added
      && List.for_all
           (fun (i, _, _, _, _) ->
             let drive = List.nth Cell.all_drives (i mod Cell.n_drives) in
             Ir.set_drive d i drive;
             Ir.drive d i = drive)
           added)

(* Fig. 8 as flat columns: the frozen design's heap footprint, the words
   a build promotes out of the minor heap and allocates in the major
   heap, and freeze's own garbage, all per instance. The record-per-instance netlist measured 22.3 reachable
   and about 13-15 promoted words per instance. *)
let test_heap_shape () =
  let cfg = Spec.initial_config Spec.fig8 in
  let m = Macro_rtl.build lib cfg in
  let d = m.Macro_rtl.design in
  let n = float_of_int (Ir.n_insts d) in
  let reachable = float_of_int (Obj.reachable_words (Obj.repr d)) /. n in
  check_bool
    (Printf.sprintf "reachable %.2f words per instance < 14" reachable)
    true (reachable < 14.0);
  Gc.full_major ();
  let _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (Macro_rtl.build lib cfg));
  let _, promoted1, major1 = Gc.counters () in
  let promoted = (promoted1 -. promoted0) /. n in
  check_bool
    (Printf.sprintf "build promotes %.2f words per instance < 4" promoted)
    true (promoted < 4.0);
  (* the stamped build allocates its columns once, at exact size; built
     instance by instance into doubling columns it took 30.9 *)
  let major = (major1 -. major0) /. n in
  check_bool
    (Printf.sprintf "build allocates %.2f major words per instance <= 18"
       major)
    true (major <= 18.0);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ir.freeze d.Ir.src));
  let minor = (Gc.minor_words () -. before) /. n in
  check_bool
    (Printf.sprintf "freeze allocates %.3f minor words per instance < 1" minor)
    true (minor < 1.0)


(* ---------------- templates ---------------- *)

(* A random block of builder combinators over [ins]: each step draws its
   operands from the inputs, the constant 0 and every net built so far,
   under one of two subcircuit tags or a pipeline-register tag. Returns
   the block's last few nets as its outputs. *)
let random_block steps ir ins =
  let plain = Builder.ctx_plain ir and sub = Builder.in_subcircuit ir "blk" in
  let pool = Vec.create Ir.const0 in
  let push n = ignore (Vec.push pool n) in
  Array.iter push ins;
  push Ir.const0;
  let pick k = Vec.get pool (k mod Vec.length pool) in
  List.iter
    (fun (op, a, b, d) ->
      let c = if d land 1 = 0 then plain else sub in
      match op mod 7 with
      | 0 -> push (Builder.and2 c (pick a) (pick b))
      | 1 -> push (Builder.xor2 c (pick a) (pick b))
      | 2 -> push (Builder.inv c (pick a))
      | 3 -> push (Builder.mux2 c ~sel:(pick d) (pick a) (pick b))
      | 4 ->
          let s, co = Builder.fa c (pick a) (pick b) (pick d) in
          push s;
          push co
      | 5 -> push (Builder.dff ~tag:(Ir.Pipeline_reg "blk") c (pick a))
      | _ ->
          (* folds wherever an operand is the constant *)
          let s, co =
            Builder.rca_add c [| pick a; pick b |] [| pick d; pick (a + b) |]
              Ir.const0
          in
          Array.iter push s;
          push co)
    steps;
  let n = Vec.length pool in
  Array.init (min 3 n) (fun k -> Vec.get pool (n - 1 - k))

(* [copies] blocks on a shared set of [prefix] primary inputs, each copy
   on its own choice of them (positions may repeat a net), built in
   place or stamped from one template. *)
let build_copies ~stamped ~prefix ~n_inputs ~choices steps =
  let ir = Ir.create () in
  let p = Ir.new_bus ir prefix in
  Ir.add_input ir "p" p;
  let tm = lazy (fst (Ir.template ~inputs:n_inputs (fun body ins -> (random_block steps body ins, ())))) in
  List.iteri
    (fun k choice ->
      let ins = Array.map (fun j -> p.(j)) choice in
      let outs =
        if stamped then Ir.stamp ir (Lazy.force tm) ins
        else random_block steps ir ins
      in
      Ir.add_output ir (Printf.sprintf "o%d" k) outs)
    choices;
  Ir.freeze ir

let same_design (a : Ir.design) (b : Ir.design) =
  a.Ir.n_nets = b.Ir.n_nets
  && Bytes.equal a.Ir.kinds b.Ir.kinds
  && Bytes.equal a.Ir.drives b.Ir.drives
  && a.Ir.tags = b.Ir.tags && a.Ir.tag_table = b.Ir.tag_table
  && a.Ir.pin_start = b.Ir.pin_start && a.Ir.pins = b.Ir.pins
  && Ir.inputs a.Ir.src = Ir.inputs b.Ir.src
  && Ir.outputs a.Ir.src = Ir.outputs b.Ir.src

(* Stamping a random block k times builds, column for column, what
   building it k times in place builds. *)
let qtest_stamp_matches_direct =
  QCheck.Test.make ~name:"Ir.stamp equals building in place" ~count:200
    QCheck.(pair (int_range 1 30) (int_bound 1_000_000))
    (fun (n_steps, seed) ->
      let rng = Rng.create seed in
      let n_inputs = 1 + Rng.int rng 5 and prefix = 1 + Rng.int rng 6 in
      let steps =
        List.init n_steps (fun _ ->
            (Rng.int rng 7, Rng.int rng 64, Rng.int rng 64, Rng.int rng 64))
      in
      let choices =
        List.init (1 + Rng.int rng 4) (fun _ ->
            Array.init n_inputs (fun _ -> Rng.int rng prefix))
      in
      let build stamped = build_copies ~stamped ~prefix ~n_inputs ~choices steps in
      same_design (build false) (build true))

(* One net on two input positions: the copy wires both to it, as a build
   in place would. *)
let test_stamp_aliased_inputs () =
  let full_adder body ins =
    let s, co = Builder.fa (Builder.ctx_plain body) ins.(0) ins.(1) ins.(2) in
    ([| s; co |], ())
  in
  let tm, () = Ir.template ~inputs:3 full_adder in
  let build stamp =
    let ir = Ir.create () in
    let x = Ir.new_net ir and y = Ir.new_net ir in
    Ir.add_input ir "x" [| x |];
    Ir.add_input ir "y" [| y |];
    let ins = [| x; x; y |] in
    let outs = if stamp then Ir.stamp ir tm ins else fst (full_adder ir ins) in
    Ir.add_output ir "o" outs;
    Ir.freeze ir
  in
  let d = build true in
  check_bool "same as in place" true (same_design (build false) d);
  Alcotest.(check (array int)) "both positions on x" [| 2; 2; 3 |] (Ir.ins d 0)

(* A constant input would have been folded by a build in place, so a
   stamp refuses it; so does a wrong input count. A block holding a
   weight bit is no template. *)
let test_stamp_rejects () =
  let tm, () =
    Ir.template ~inputs:2 (fun body ins ->
        ([| Builder.and2 (Builder.ctx_plain body) ins.(0) ins.(1) |], ()))
  in
  let ir = Ir.create () in
  let x = Ir.new_net ir in
  Alcotest.check_raises "constant input"
    (Invalid_argument "Ir.stamp: input 1 is a constant net") (fun () ->
      ignore (Ir.stamp ir tm [| x; Ir.const0 |]));
  Alcotest.check_raises "one input short"
    (Invalid_argument "Ir.stamp: the block takes 2 inputs, got 1") (fun () ->
      ignore (Ir.stamp ir tm [| x |]));
  check_int "nothing stamped" 0 ir.Ir.count;
  Alcotest.check_raises "weight bit"
    (Invalid_argument "Ir.template: a block holds no weight bit") (fun () ->
      ignore
        (Ir.template ~inputs:0 (fun body _ ->
             let o = Ir.new_net body in
             ignore
               (Ir.add
                  ~tag:(Ir.Weight_bit { row = 0; col = 0; copy = 0 })
                  body (Cell.Sram Cell.S6t) ~ins:[||] ~outs:[| o |]);
             ([| o |], ()))))

let () =
  Alcotest.run "netlist"
    [
      ( "ir",
        [
          Alcotest.test_case "multiple drivers" `Quick
            test_multiple_drivers_rejected;
          Alcotest.test_case "comb cycle" `Quick test_comb_cycle_rejected;
          Alcotest.test_case "register feedback" `Quick
            test_register_feedback_allowed;
          Alcotest.test_case "arity check" `Quick test_arity_checked;
          Alcotest.test_case "net out of range" `Quick test_net_out_of_range;
          Alcotest.test_case "negative net" `Quick test_negative_net;
          Alcotest.test_case "heap shape" `Quick test_heap_shape;
          Alcotest.test_case "fanout load" `Quick test_fanout_load;
          Alcotest.test_case "CSR fanout" `Quick test_csr_fanout;
          Alcotest.test_case "driver map" `Quick test_driver_matches_scan;
          Alcotest.test_case "comb order" `Quick test_comb_order_is_kahn_fifo;
          Alcotest.test_case "weight index round trip" `Quick
            test_weight_index_round_trip;
          Alcotest.test_case "bad weight address" `Quick
            test_bad_weight_address;
          Alcotest.test_case "bus lookup" `Quick test_bus_lookup;
        ] );
      ( "template",
        [
          Alcotest.test_case "aliased inputs" `Quick test_stamp_aliased_inputs;
          Alcotest.test_case "rejects" `Quick test_stamp_rejects;
          QCheck_alcotest.to_alcotest qtest_stamp_matches_direct;
        ] );
      ( "builder",
        [
          Alcotest.test_case "rca exhaustive" `Quick test_rca_add_exhaustive;
          Alcotest.test_case "carry-select exhaustive" `Quick
            test_carry_select_exhaustive;
          Alcotest.test_case "carry-select cin" `Quick
            test_carry_select_with_cin;
          Alcotest.test_case "addsub signed" `Quick test_addsub_signed;
          Alcotest.test_case "sub/neg" `Quick test_sub_and_neg;
          Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter;
          Alcotest.test_case "greater_than" `Quick test_greater_than;
          Alcotest.test_case "equal/or-reduce" `Quick
            test_equal_const_and_reduce;
          Alcotest.test_case "mux + shift wiring" `Quick
            test_mux_and_shift_wiring;
        ] );
      ( "sim",
        [
          Alcotest.test_case "dff_en hold" `Quick test_dff_en_hold;
          Alcotest.test_case "enable cycles" `Quick test_en_cycles_counted;
          Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
          Alcotest.test_case "weight storage" `Quick test_weight_storage;
        ] );
      ( "views",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "stats match per-instance Hashtbl count" `Quick
            test_stats_match_reference;
          Alcotest.test_case "verilog writer" `Quick test_verilog_writer;
          Alcotest.test_case "sim determinism" `Quick test_sim_determinism;
          Alcotest.test_case "reset stats" `Quick test_reset_stats;
          Alcotest.test_case "missing bus" `Quick test_missing_bus;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qtest_rca_random;
          QCheck_alcotest.to_alcotest qtest_settle_matches_full_sweep;
          QCheck_alcotest.to_alcotest qtest_columns_round_trip;
        ] );
    ]
