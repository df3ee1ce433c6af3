(** Switching-activity power estimation.

    Consumes the toggle counters a {!Netlist.Sim} run accumulated and turns
    them into watts: every output toggle costs the driving cell's internal
    energy plus (1/2)·C_load·VDD², every clock edge costs each flip-flop its
    clock-pin energy (inflated by a clock-tree factor), every SRAM bit flip
    costs a write energy, and leakage integrates over time. This is the
    same accounting a gate-level PrimeTime power run performs. *)

(** Extra switching capacitance of the clock distribution, as a multiplier
    on the flip-flops' clock-pin energy. *)
let clock_tree_factor = 1.25

(** SRAM write energy per flipped bit at nominal VDD (fJ). *)
let sram_write_fj = 8.0

type breakdown = (string * float) list
(** watts per subcircuit label *)

type report = {
  dynamic_w : float;
  clock_w : float;
  leakage_w : float;
  weight_update_w : float;
  total_w : float;
  energy_per_cycle_fj : float;
  by_subcircuit : breakdown;
}

let dff_en = Cell.kind_index Cell.Dff_en

(** [estimate_activity d lib ~toggles ~en_cycles ~cycles ~weight_flips
    ~freq_hz ~vdd ?wire_cap ?loads ()] converts raw switching-activity
    counters into a power report at the given operating point. This is
    the accounting core both simulators share: the scalar {!Sim} passes
    its counters through {!estimate}; a bit-sliced {!Sim_sliced} run
    passes lane-summed counters with [cycles] inflated by the lane count
    ([Design_point.measure_power_sliced]), which yields the *average*
    power of one macro replica over the whole lane ensemble — the Monte
    Carlo estimate, converged over [lanes ×] the sample mass per
    simulated cycle. [cycles] must be positive.
    [loads] is the per-net fanout-load map ({!Ir.fanout_loads}); pass the
    one the timing pass already computed to avoid rebuilding it here.
    [drives] (a drive column, e.g. a {!Sizing.snapshot}) prices each
    instance at that drive instead of its live one, so a deferred
    estimate stays valid after a later pass resized the netlist; [loads]
    must then have been computed under the same drives. *)
let estimate_activity (d : Ir.design) (lib : Library.t)
    ~(toggles : int array) ~(en_cycles : int array) ~(cycles : int)
    ~(weight_flips : int) ~freq_hz ~vdd
    ?(wire_cap = fun (_ : Ir.net) -> 0.0) ?loads ?drives () =
  assert (cycles > 0);
  let kinds = d.kinds and table = lib.Library.table in
  let drives : Ir.drive_snapshot =
    match drives with Some a -> a | None -> d.drives
  in
  (* instance [i]'s library model under [drives] *)
  let params i =
    table.((Char.code (Bytes.unsafe_get kinds i) * Cell.n_drives)
           + Char.code (Bytes.get drives i))
  in
  let loads =
    match loads with
    | Some l -> l
    | None -> Ir.fanout_loads d lib ~wire_cap ()
  in
  let node = lib.Library.node in
  let esc = Voltage.energy_scale node ~vdd in
  let lsc = Voltage.leakage_scale node ~vdd in
  (* per-subcircuit switching energy: one slot per label, each summed in
     net order. Builders give a block's instances one shared tag, so
     consecutive toggled nets mostly carry the same tag key and the label
     scan runs only when it changes. *)
  let labels = Vec.create "" and sub_fj = ref (Array.make 8 0.0) in
  let last_key = ref 0 and last_slot = ref (-1) in
  let slot_of i =
    let tag_key = Ir.tag_key d i in
    if !last_slot >= 0 && !last_key = tag_key then !last_slot
    else begin
      let key = Ir.label d i in
      let s = ref 0 in
      while !s < Vec.length labels && not (String.equal (Vec.get labels !s) key)
      do
        incr s
      done;
      if !s = Vec.length labels then begin
        if !s = Array.length !sub_fj then begin
          let grown = Array.make (2 * !s) 0.0 in
          Array.blit !sub_fj 0 grown 0 !s;
          sub_fj := grown
        end;
        ignore (Vec.push labels key)
      end;
      last_key := tag_key;
      last_slot := !s;
      !s
    end
  in
  (* switching energy, accumulated in fJ over the whole run; a primary
     input (no driver) is charged to the driver upstream *)
  let sw_fj = ref 0.0 in
  for net = 0 to Array.length toggles - 1 do
    let count = toggles.(net) in
    if count > 0 then begin
      let i = d.driver_inst.(net) in
      if i >= 0 then begin
        let p = params i in
        let load = loads.(net) in
        let per_toggle = (p.energy_fj *. esc) +. (0.5 *. load *. vdd *. vdd) in
        let fj = float_of_int count *. per_toggle in
        sw_fj := !sw_fj +. fj;
        let s = slot_of i in
        let sub = !sub_fj in
        sub.(s) <- sub.(s) +. fj
      end
    end
  done;
  (* clock network: plain flip-flops see every edge; enabled flip-flops
     sit behind integrated clock gates and are only charged for their
     enabled cycles *)
  let cycles = float_of_int cycles in
  let clk_fj = ref 0.0 in
  for k = 0 to Array.length d.seq - 1 do
    let i = d.seq.(k) in
    let p = params i in
    let active =
      if Char.code (Bytes.get kinds i) = dff_en then float_of_int en_cycles.(i)
      else cycles
    in
    clk_fj :=
      !clk_fj +. (p.clock_energy_fj *. esc *. clock_tree_factor *. active)
  done;
  let clk_fj = !clk_fj in
  (* weight updates through the BL drivers *)
  let wr_fj = float_of_int weight_flips *. sram_write_fj *. esc in
  let time_s = cycles /. freq_hz in
  let to_w fj = fj *. 1e-15 /. time_s in
  let leak_nw = ref 0.0 in
  for i = 0 to Ir.n_insts d - 1 do
    leak_nw := !leak_nw +. (params i).leakage_nw
  done;
  let leak_nw = !leak_nw in
  let leakage_w = leak_nw *. 1e-9 *. lsc in
  let dynamic_w = to_w !sw_fj in
  let clock_w = to_w clk_fj in
  let weight_update_w = to_w wr_fj in
  let total_w = dynamic_w +. clock_w +. leakage_w +. weight_update_w in
  {
    dynamic_w;
    clock_w;
    leakage_w;
    weight_update_w;
    total_w;
    energy_per_cycle_fj = (!sw_fj +. clk_fj +. wr_fj) /. cycles;
    by_subcircuit =
      List.init (Vec.length labels) (fun s ->
          (Vec.get labels s, to_w !sub_fj.(s)))
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

(** [estimate_at_vdds d lib ~toggles .. ~vdds ()] — one set of counters,
    a whole supply-voltage column of reports. Switching activity is
    voltage-independent (the stimulus fixes which nets toggle; the
    supply only rescales each toggle's energy through
    {!Voltage.energy_scale}/{!Voltage.leakage_scale}), so a single
    simulation run serves every VDD point of a shmoo column. The
    fanout-load map is built once and shared, which makes each column
    entry perform float arithmetic bit-identical to a standalone
    {!estimate_activity} call given the same [loads]. *)
let estimate_at_vdds (d : Ir.design) (lib : Library.t)
    ~(toggles : int array) ~(en_cycles : int array) ~(cycles : int)
    ~(weight_flips : int) ~freq_hz ~(vdds : float array) ?wire_cap ?loads
    () =
  let loads =
    match loads with
    | Some l -> l
    | None -> Ir.fanout_loads d lib ?wire_cap ()
  in
  Array.map
    (fun vdd ->
      estimate_activity d lib ~toggles ~en_cycles ~cycles ~weight_flips
        ~freq_hz ~vdd ~loads ())
    vdds

(** [estimate d lib sim ~freq_hz ~vdd ?wire_cap ?loads ?drives ()] — the
    scalar entry point: the toggle statistics of a finished {!Sim} run.
    [sim] must have run at least one cycle. *)
let estimate (d : Ir.design) (lib : Library.t) (sim : Sim.t) ~freq_hz ~vdd
    ?wire_cap ?loads ?drives () =
  estimate_activity d lib ~toggles:sim.Sim.toggles
    ~en_cycles:sim.Sim.en_cycles ~cycles:sim.Sim.cycles
    ~weight_flips:sim.Sim.weight_flips ~freq_hz ~vdd ?wire_cap ?loads ?drives
    ()
