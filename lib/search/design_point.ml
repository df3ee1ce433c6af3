(** One evaluated candidate of the searcher: a macro configuration, its
    built netlist, and its measured (pre-layout) PPA at the spec's
    operating point.

    Evaluation = build the netlist, size the critical path toward the
    budget, run static timing, and check both frequency constraints.
    Switching power (streaming a sparse MAC workload) is measured on
    demand: Algorithm 1 reads it only in its preference fine-tune, so
    {!evaluate} leaves it pending and {!power_w} runs the stream once, on
    first read. This plays the role the LUT-composed estimate plays in
    the paper's searcher, with the final netlist numbers always taken
    from the real structure. *)

(* A point's power: pending until first read, then the measured value
   (the closure, and the loads and drives it captured, are dropped). *)
type power_state = Pending of (unit -> float) | Done of float

type power = { lock : Mutex.t; mutable state : power_state }

type t = {
  cfg : Macro_rtl.config;
  macro : Macro_rtl.t;
  sta : Sta.report;  (** post-sizing *)
  crit_ps : float;  (** nominal-voltage critical path after sizing *)
  upsized : int;
      (** drive bumps timing-driven sizing kept (X1 -> X4 counts two) *)
  area_um2 : float;  (** standard-cell area (pre-layout) *)
  power : power;  (** read through {!power_w} *)
  meets_mac : bool;
  meets_wupd : bool;
  tops : float;  (** native-precision TOPS at the spec frequency *)
}

(* Deterministic: a point's stream runs once however many walks read it
   (the memo is single-flight) and {!Eval_cache} evaluates each point
   once for every walk, so the count is invariant across job counts. *)
let m_power_streams = Metrics.counter "search.power_streams"

(** [measured_power w] — a power memo that is already settled, for a
    point whose power was measured eagerly. *)
let measured_power w = { lock = Mutex.create (); state = Done w }

(** [power_w p] — [p]'s power at the spec's frequency/voltage, streaming
    MACs. The first read runs the stream (counted as
    [search.power_streams]); concurrent readers wait for it and later
    reads return the stored value. An exception raised by the stream
    propagates to the reader and leaves the memo pending. *)
let power_w (p : t) =
  let m = p.power in
  Mutex.protect m.lock (fun () ->
      match m.state with
      | Done w -> w
      | Pending f ->
          let w = f () in
          m.state <- Done w;
          Metrics.incr m_power_streams;
          w)

(** Activity assumptions during search-time power evaluation. *)
let search_input_density = 0.5

let search_weight_density = 0.5
let search_macs = 6

(** [throughput_tops m ~freq_hz] — native ops: one MAC = 2 ops, one word
    per [db] cycles per column group. *)
let throughput_tops (m : Macro_rtl.t) ~freq_hz =
  2.0
  *. float_of_int (m.cfg.rows * m.words)
  *. freq_hz
  /. float_of_int (Macro_rtl.serial_cycles m)
  /. 1e12

(** [measure_power lib m ~freq_hz ~vdd ~input_density ~weight_density
    ~macs] prices {!Testbench.power_stream}: sparse random weights, then
    [macs] back-to-back MACs. Exposed for the experiment harness, which
    uses the paper's measurement sparsity. [loads] and [drives] pass
    through to {!Power.estimate}; the stream itself reads only the
    netlist's structure, never its drives. *)
let measure_power ?seed ?loads ?drives lib (m : Macro_rtl.t) ~freq_hz ~vdd
    ~input_density ~weight_density ~macs =
  let sim =
    Testbench.power_stream ?seed m ~input_density ~weight_density ~macs
  in
  Power.estimate m.design lib sim ~freq_hz ~vdd ?loads ?drives ()

(** [measure_power_sliced (module E) lib m ~freq_hz ~vdd ~input_density
    ~weight_density ~macs] — the bit-sliced Monte Carlo form of
    {!measure_power}: one run of any {!Slice.S} engine streams [macs]
    MACs in [n_lanes] (default the engine's width, 63 for [packed])
    concurrent replicas, each with its own random weights and input
    stream, and folds the lane-summed counters through
    {!Power.estimate_activity} with [lanes × cycles] effective cycles:
    the average power of one replica. Same simulated cycle count,
    [n_lanes ×] the sample mass. Given the same [n_lanes], every engine
    draws the identical stimulus and produces bit-identical counters,
    hence bit-identical reports — the conformance property the test
    suite pins. *)
let measure_power_sliced (module E : Slice.S) ?seed ?loads
    ?n_lanes lib (m : Macro_rtl.t) ~freq_hz ~vdd ~input_density
    ~weight_density ~macs =
  let module B = Testbench.Body (E) in
  let sim =
    B.power_stream ?seed ?n_lanes m ~input_density ~weight_density ~macs
  in
  Power.estimate_activity m.design lib ~toggles:(E.toggles sim)
    ~en_cycles:(E.en_cycles sim)
    ~cycles:(E.cycles sim * E.lanes_of sim)
    ~weight_flips:(E.weight_flips sim) ~freq_hz ~vdd ?loads ()

(** [evaluate lib spec cfg] builds, sizes and times one candidate; its
    power stays pending until {!power_w} reads it. The pending estimate
    captures sizing's load map and a snapshot of the sized drives, so it
    prices exactly the netlist evaluated here even if a later pass (the
    backend ECO) resizes the design in place first. [macro], when given,
    replaces the build: [cfg]'s netlist at its as-built drives, with a
    drive column no other point shares (sizing writes it in place). *)
let evaluate ?macro (lib : Library.t) (spec : Spec.t) (cfg : Macro_rtl.config)
    : t =
  let macro =
    match macro with Some m -> m | None -> Macro_rtl.build lib cfg
  in
  let budget = Spec.search_budget_ps spec lib.Library.node in
  let sized = Sizing.speed_up macro.design lib ~target_ps:budget in
  (* sizing's kept round timed the final drives: its report and load
     map serve STA and power *)
  let sta = sized.Sizing.sta and loads = sized.Sizing.loads in
  let drives = Sizing.snapshot macro.design in
  let stats = Stats.of_design macro.design lib in
  let stream () =
    (measure_power ~loads ~drives lib macro ~freq_hz:spec.Spec.mac_freq_hz
       ~vdd:spec.Spec.vdd ~input_density:search_input_density
       ~weight_density:search_weight_density ~macs:search_macs)
      .Power.total_w
  in
  let wupd_ps =
    Driver.weight_update_ps lib ~rows:spec.Spec.rows
    *. Voltage.delay_scale lib.Library.node ~vdd:spec.Spec.vdd
  in
  {
    cfg;
    macro;
    sta;
    crit_ps = sta.Sta.crit_ps;
    upsized = sized.Sizing.upsized;
    area_um2 = stats.Stats.area_um2;
    power = { lock = Mutex.create (); state = Pending stream };
    meets_mac = sta.Sta.crit_ps <= budget +. 0.5;
    meets_wupd = wupd_ps <= 1e12 /. spec.Spec.weight_update_freq_hz;
    tops = throughput_tops macro ~freq_hz:spec.Spec.mac_freq_hz;
  }

(** Which pipeline stage owns the critical path: the dominant subcircuit
    tag among the combinational instances on it. Drives Algorithm 1's
    branch between MAC-path and OFU-path techniques. *)
type stage = Mac_path | Ofu_path | Sa_path | Align_path

let critical_stage (p : t) : stage =
  let share = Hashtbl.create 8 in
  let bump key w =
    let cur = try Hashtbl.find share key with Not_found -> 0.0 in
    Hashtbl.replace share key (cur +. w)
  in
  let design = p.macro.Macro_rtl.design in
  List.iter
    (fun (s : Sta.path_step) ->
      if s.Sta.inst >= 0 then
        let i = s.Sta.inst in
        if not (Cell.is_sequential (Ir.kind design i)) then
          let key =
            match Ir.tag design i with
            | Ir.Subcircuit ("wl_driver" | "mulmux" | "adder_tree") -> Mac_path
            | Ir.Weight_bit _ -> Mac_path
            | Ir.Subcircuit "ofu" -> Ofu_path
            | Ir.Subcircuit "shift_adder" -> Sa_path
            | Ir.Subcircuit "fp_align" -> Align_path
            | Ir.Subcircuit _ | Ir.Pipeline_reg _ | Ir.Plain -> Mac_path
          in
          bump key 1.0)
    p.sta.Sta.path;
  let best = ref Mac_path and best_w = ref 0.0 in
  Hashtbl.iter
    (fun k w ->
      if w > !best_w then begin
        best := k;
        best_w := w
      end)
    share;
  !best

let summary (p : t) =
  Printf.sprintf
    "%s tree, split=%d, mul=%s, regs(tree=%b,sa=%b), retime(rca=%b,ofu=%b), \
     pipe=%b: crit %.0f ps, %.2f mW, %.3f mm2, %s"
    (Adder_tree.topology_name p.cfg.tree)
    p.cfg.tree_split
    (Cell.kind_to_string (Cell.Mul p.cfg.mul_kind))
    p.cfg.reg_after_tree p.cfg.reg_sa_to_ofu p.cfg.retime_final_rca
    p.cfg.ofu_retime p.cfg.ofu_extra_pipe p.crit_ps (power_w p *. 1e3)
    (p.area_um2 /. 1e6)
    (if p.meets_mac then "MEETS" else "VIOLATES")
