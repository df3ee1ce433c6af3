(** Standalone characterization of individual subcircuits.

    Each function wraps one paper subcircuit into a tiny netlist with
    primary I/O, then measures: delay from static timing, area/leakage
    from the inventory, and switching energy from a randomized toggle
    simulation — the same flow the paper uses to fill its subcircuit
    library LUTs ("typical configurations are implemented into layouts and
    simulated for PPA data"). *)

let sim_cycles = 32

(* Run [drive] each cycle to randomize the named input buses, return
   average switching energy per cycle (fJ, nominal VDD). *)
let measure_energy (d : Ir.design) lib ~drive =
  let sim = Sim_sliced.create ~n_lanes:1 d in
  let rng = Rng.create 0xC1AC in
  (* warm up one cycle so initial X-settling is not charged *)
  drive rng sim;
  Sim_sliced.step sim;
  Sim_sliced.reset_stats sim;
  for _ = 1 to sim_cycles do
    drive rng sim;
    Sim_sliced.step sim
  done;
  let p =
    Power.estimate d lib sim ~freq_hz:1e9 ~vdd:lib.Library.node.vdd_nominal ()
  in
  p.Power.energy_per_cycle_fj

let finish lib ir ~drive =
  let d = Ir.freeze ir in
  let st = Stats.of_design d lib in
  let sta = Sta.analyze d lib in
  {
    Ppa.delay_ps = sta.crit_ps;
    area_um2 = st.area_um2;
    energy_fj = measure_energy d lib ~drive;
    leakage_nw = st.leakage_nw;
  }

let drive_buses buses rng sim =
  List.iter
    (fun (name, width) ->
      Sim_sliced.set_bus sim name (Rng.int rng (Intmath.pow2 (min width 30))))
    buses

(** Adder tree over [rows] one-bit inputs. *)
let adder_tree lib ~topology ~rows =
  let ir = Ir.create ~name:"scl_tree" () in
  let c = Builder.in_subcircuit ir "adder_tree" in
  let leaves = Ir.new_bus ir rows in
  Ir.add_input ir "in" leaves;
  let t =
    Adder_tree.build c lib ~topology ~split:1 ~reg_out:false
      ~retime_final_rca:false ~leaves
  in
  Ir.add_output ir "sum" t.sum;
  finish lib ir ~drive:(fun rng sim ->
      (* half-dense products, the array's typical activity *)
      let bits = Array.init rows (fun _ -> Rng.bit rng ~p1:0.5 = 1) in
      Sim_sliced.set_bus_bits sim "in" bits)

(** One multiplier/mux compute element at the given MCR. *)
let mulmux lib ~variant ~mcr =
  let ir = Ir.create ~name:"scl_mulmux" () in
  let c = Builder.in_subcircuit ir "mulmux" in
  let x = Ir.new_net ir in
  Ir.add_input ir "x" [| x |];
  let sel_bits = Intmath.ceil_log2 (max mcr 1) in
  let sel = Ir.new_bus ir (max sel_bits 1) in
  if mcr > 1 then Ir.add_input ir "sel" sel;
  let weights = Ir.new_bus ir mcr in
  Ir.add_input ir "w" weights;
  let o =
    Mulmux.build c ~variant ~x ~weights
      ~sel:(if mcr > 1 then Array.sub sel 0 sel_bits else [||])
  in
  Ir.add_output ir "p" [| o |];
  let buses = [ ("x", 1); ("w", mcr) ] in
  let buses = if mcr > 1 then ("sel", sel_bits) :: buses else buses in
  finish lib ir ~drive:(drive_buses buses)

(** One storage bit (area/leakage dominated; read delay from the cell). *)
let memory_cell lib ~kind =
  let p = Library.params lib (Cell.Sram kind) Cell.X1 in
  {
    Ppa.delay_ps = p.intrinsic_ps.(0);
    area_um2 = p.area_um2;
    energy_fj = p.energy_fj;
    leakage_nw = p.leakage_nw;
  }

(** FP&INT alignment unit for [rows] inputs. *)
let fp_align lib ~fmt ~pipeline ~rows =
  let ir = Ir.create ~name:"scl_align" () in
  let c = Builder.in_subcircuit ir "fp_align" in
  let packed =
    Array.init rows (fun r ->
        let b = Ir.new_bus ir (Fpfmt.storage_bits fmt) in
        Ir.add_input ir (Printf.sprintf "x%d" r) b;
        b)
  in
  let en = Ir.new_net ir in
  Ir.add_input ir "en" [| en |];
  let a = Fp_align.build c fmt ~pipeline ~en ~rows_packed:packed in
  Array.iteri
    (fun r bus -> Ir.add_output ir (Printf.sprintf "a%d" r) bus)
    a.aligned;
  Ir.add_output ir "gexp" a.group_exp;
  let buses =
    ("en", 1)
    :: List.init rows (fun r ->
           (Printf.sprintf "x%d" r, Fpfmt.storage_bits fmt))
  in
  finish lib ir ~drive:(fun rng sim ->
      Sim_sliced.set_bus sim "en" 1;
      drive_buses (List.tl buses) rng sim)

(** Shift-and-adder column. *)
let shift_adder lib ~kind ~rows ~serial_bits =
  let ir = Ir.create ~name:"scl_sa" () in
  let c = Builder.in_subcircuit ir "shift_adder" in
  let ts = Intmath.ceil_log2 rows + 1 in
  let sum = Ir.new_bus ir ts in
  Ir.add_input ir "sum" sum;
  let neg = Ir.new_net ir and clr = Ir.new_net ir and en = Ir.new_net ir in
  Ir.add_input ir "neg" [| neg |];
  Ir.add_input ir "clr" [| clr |];
  Ir.add_input ir "en" [| en |];
  let sa = Shift_adder.build ~kind c ~rows ~serial_bits ~sum ~neg ~clr ~en in
  Ir.add_output ir "acc" sa.acc;
  finish lib ir ~drive:(fun rng sim ->
      Sim_sliced.set_bus sim "sum" (Rng.int rng rows);
      Sim_sliced.set_bus sim "en" 1;
      Sim_sliced.set_bus sim "clr" (Rng.bit rng ~p1:0.12);
      Sim_sliced.set_bus sim "neg" (Rng.bit rng ~p1:0.12))

(** Output fusion unit for a [wb]-column word of [w_sa]-bit aggregates. *)
let ofu lib ~wb ~w_sa ~result_width ~pipe ~fast =
  let ir = Ir.create ~name:"scl_ofu" () in
  let c = Builder.in_subcircuit ir "ofu" in
  let columns =
    Array.init wb (fun j ->
        let b = Ir.new_bus ir w_sa in
        Ir.add_input ir (Printf.sprintf "a%d" j) b;
        b)
  in
  let pipe_after_level = if pipe then Some (Ofu.n_levels wb / 2) else None in
  let arch = if fast then Builder.Csel 4 else Builder.Rca in
  let b =
    Ofu.build ~arch c ~signed_weights:(wb > 1) ~result_width
      ~pipe_after_level ~columns
  in
  Ir.add_output ir "r" b.result;
  let buses = List.init wb (fun j -> (Printf.sprintf "a%d" j, w_sa)) in
  finish lib ir ~drive:(drive_buses buses)

(** WL driver slice: input register + row fanout buffering for [cols]
    consumers. *)
let wl_driver lib ~cols =
  let ir = Ir.create ~name:"scl_wl" () in
  let c = Builder.in_subcircuit ir "wl_driver" in
  let x = Ir.new_net ir in
  Ir.add_input ir "x" [| x |];
  let q = Builder.dff c x in
  let leaves = Driver.fanout_tree c q ~consumers:cols ~max_fanout:16 in
  (* terminate each leaf in a typical multiplier load *)
  let outs = Array.map (fun l -> Builder.buf c l) leaves in
  Ir.add_output ir "o" outs;
  finish lib ir ~drive:(drive_buses [ ("x", 1) ])
