(** The scalar oracle's adapters: {!Sim} as a 1-lane {!Slice.S}, so every
    consumer written against that contract (the sign-off bench, the
    differential checker, the equivalence checker) runs on it unchanged;
    the single-MAC bench over it; and its power estimate. *)

(** {!Sim} as a 1-lane slice: the [scalar] engine of the conformance
    suite. *)
module Scalar : Slice.S with type t = Sim.t = struct
  type t = Sim.t

  let name = "scalar"
  let max_lanes = 1

  let create ?n_lanes d =
    (match n_lanes with
    | Some l when l <> 1 ->
        invalid_arg
          (Printf.sprintf
             "Oracle.Scalar.create: requested %d lanes, valid range is 1..1" l)
    | Some _ | None -> ());
    Sim.create d

  let lanes_of (_ : t) = 1
  let set_bus = Sim.set_bus

  let set_bus_lanes t name vs =
    Sim.set_bus t name (if Array.length vs >= 1 then vs.(0) else 0)

  let read_bus_lane t name lane =
    assert (lane = 0);
    Sim.read_bus t name

  let read_bus_signed_lane t name lane =
    assert (lane = 0);
    Sim.read_bus_signed t name

  let extract_lane (t : t) lane =
    assert (lane = 0);
    Array.copy t.Sim.values

  let seq_state_lane (t : t) lane =
    assert (lane = 0);
    Array.copy t.Sim.seq_state

  let storage_state_lane (t : t) lane =
    assert (lane = 0);
    Array.copy t.Sim.storage_state

  let set_weight_lanes t ~row ~col ~copy (bits : bool array) =
    Sim.set_weight t ~row ~col ~copy (Array.length bits >= 1 && bits.(0))

  let eval = Sim.eval
  let clock = Sim.clock
  let step = Sim.step
  let reset_stats = Sim.reset_stats
  let toggles (t : t) = t.Sim.toggles
  let en_cycles (t : t) = t.Sim.en_cycles
  let cycles (t : t) = t.Sim.cycles
  let weight_flips (t : t) = t.Sim.weight_flips
  let weight_writes (t : t) = t.Sim.weight_writes
end

(** The single-MAC bench on a {!Sim}: [Bench.load_weights],
    [Bench.run_mac], [Bench.check_mac], [Bench.run_mac_auto], and the
    lane body as [Bench.Lanes]. *)
module Bench = Testbench.Single (Scalar)

(** [estimate d lib sim ~freq_hz ~vdd ?wire_cap ?loads ?drives ()] — the
    power of a finished {!Sim} run. [sim] must have run at least one
    cycle. *)
let estimate (d : Ir.design) (lib : Library.t) (sim : Sim.t) ~freq_hz ~vdd
    ?wire_cap ?loads ?drives () =
  Power.estimate_activity d lib ~toggles:sim.Sim.toggles
    ~en_cycles:sim.Sim.en_cycles ~cycles:sim.Sim.cycles
    ~weight_flips:sim.Sim.weight_flips ~freq_hz ~vdd ?wire_cap ?loads ?drives
    ()

(** [measure_power ~seed ~n_lanes lib m ~freq_hz ~vdd ~input_density
    ~weight_density ~macs] — [Design_point.measure_power ~seed]'s
    stimulus run as [n_lanes] independent {!Sim}s, their counters summed
    and priced over [lanes × cycles] effective cycles. The draws follow
    {!Testbench.Body.power_stream}'s order: every lane's weights, then
    each MAC's inputs lane by lane. *)
let measure_power ~seed ~n_lanes lib (m : Macro_rtl.t) ~freq_hz ~vdd
    ~input_density ~weight_density ~macs =
  let rng = Rng.create seed in
  let weights =
    Array.init n_lanes (fun _ ->
        Testbench.random_weights rng m ~density:weight_density)
  in
  let inputs =
    Array.init macs (fun _ ->
        Array.init n_lanes (fun _ ->
            Array.init m.Macro_rtl.cfg.Macro_rtl.rows (fun _ ->
                Testbench.random_input ~realistic:true rng m
                  ~density:input_density)))
  in
  let d = m.Macro_rtl.design in
  let sims =
    Array.init n_lanes (fun l ->
        let sim = Sim.create d in
        if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then Sim.set_bus sim "copy_sel" 0;
        Bench.load_weights m sim ~copy:0 weights.(l);
        Sim.reset_stats sim;
        Bench.Lanes.run_stream_with m sim ~macs ~next_inputs:(fun k ->
            [| inputs.(k).(l) |]);
        sim)
  in
  let sum f = Array.fold_left (fun acc sim -> acc + f sim) 0 sims in
  let sum_array f =
    Array.init (Array.length (f sims.(0))) (fun i ->
        sum (fun sim -> (f sim).(i)))
  in
  Power.estimate_activity d lib
    ~toggles:(sum_array (fun sim -> sim.Sim.toggles))
    ~en_cycles:(sum_array (fun sim -> sim.Sim.en_cycles))
    ~cycles:(sum (fun sim -> sim.Sim.cycles))
    ~weight_flips:(sum (fun sim -> sim.Sim.weight_flips))
    ~freq_hz ~vdd ()
