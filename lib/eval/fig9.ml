(** Paper Figure 9: shmoo plot of the test macro — pass/fail over a
    (supply voltage x clock frequency) grid, derived from the signed-off
    post-layout critical path and the alpha-power-law voltage model (the
    fabricated-chip substitution documented in DESIGN.md).

    The paper's chip passes at 1.1 GHz / 1.2 V and reaches 300 MHz at
    0.7 V; the reproduced plot shows the same monotone frontier with
    GHz-class speed at 1.2 V and a few hundred MHz at 0.7 V. *)

type t = {
  crit_ps : float;  (** nominal-voltage post-layout critical path *)
  vdds : float array;
  freqs_mhz : float array;
  pass : bool array array;  (** [pass.(vi).(fi)] *)
}

let default_vdds = [| 0.6; 0.7; 0.8; 0.9; 1.0; 1.1; 1.2; 1.3 |]

let default_freqs_mhz =
  [| 100.; 200.; 300.; 400.; 500.; 600.; 700.; 800.; 900.; 1000.; 1100.; 1200.; 1300. |]

(** [shmoo node ~crit_ps] computes the grid; each supply-voltage row is
    independent and fans out over the domain pool. *)
let shmoo ?(vdds = default_vdds) ?(freqs_mhz = default_freqs_mhz) ?jobs node
    ~crit_ps =
  let pass =
    Pool.parallel_map ?jobs
      (fun vdd ->
        Array.map
          (fun f_mhz ->
            Voltage.passes node ~crit_path_ps:crit_ps ~vdd
              ~freq_hz:(f_mhz *. 1e6))
          freqs_mhz)
      (Array.to_list vdds)
    |> Array.of_list
  in
  { crit_ps; vdds; freqs_mhz; pass }

(** [run ctx artifact] derives the shmoo of a compiled macro — any
    pipeline artifact works, so an experiment can reuse the compile
    another harness already ran. *)
let run (ctx : Ctx.t) (a : Pipeline.artifact) =
  shmoo ?jobs:(Ctx.jobs ctx) (Ctx.lib ctx).Library.node
    ~crit_ps:a.Pipeline.metrics.Pipeline.crit_ps

(** [vdd_index t ~vdd] — grid row of supply [vdd], [None] when the grid
    has no such row (within 1 µV). *)
let vdd_index (t : t) ~vdd =
  let n = Array.length t.vdds in
  let rec go i =
    if i >= n then None
    else if Float.abs (t.vdds.(i) -. vdd) < 1e-6 then Some i
    else go (i + 1)
  in
  go 0

(** [fmax_mhz t ~vdd] — highest passing grid frequency at [vdd], [None]
    when no frequency passes there or when [vdd] is not a row of the
    grid (absent supplies do not alias into a neighbouring row). *)
let fmax_mhz (t : t) ~vdd =
  match vdd_index t ~vdd with
  | None -> None
  | Some vi ->
      let row = t.pass.(vi) in
      let rec last_pass best fi =
        if fi >= Array.length row then best
        else
          last_pass (if row.(fi) then Some t.freqs_mhz.(fi) else best) (fi + 1)
      in
      last_pass None 0

(** [render t] — the plot as a string, so the test suite can snapshot
    it and regressions show as a readable diff. [print] writes exactly
    this text. *)
let render (t : t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Figure 9 — shmoo plot (o = pass, . = fail)\n";
  Printf.bprintf b "        post-layout critical path: %.0f ps at nominal VDD\n"
    t.crit_ps;
  Printf.bprintf b "%8s" "V \\ MHz";
  Array.iter (fun f -> Printf.bprintf b "%5.0f" f) t.freqs_mhz;
  Buffer.add_char b '\n';
  let n = Array.length t.vdds in
  for vi = n - 1 downto 0 do
    Printf.bprintf b "%7.2fV" t.vdds.(vi);
    Array.iter
      (fun ok -> Printf.bprintf b "%5s" (if ok then "o" else "."))
      t.pass.(vi);
    Buffer.add_char b '\n'
  done;
  (match fmax_mhz t ~vdd:1.2 with
  | Some f -> Printf.bprintf b "max frequency @ 1.2 V: %.0f MHz\n" f
  | None -> ());
  (match fmax_mhz t ~vdd:0.7 with
  | Some f -> Printf.bprintf b "max frequency @ 0.7 V: %.0f MHz\n" f
  | None -> ());
  Buffer.contents b

let print (t : t) = print_string (render t)

(* ---------------- energy-annotated (measured) shmoo ---------------- *)

type measured = {
  grid : t;
  energy_fj : float array array;
      (** [energy_fj.(vi).(fi)] — average switching + clock + write
          energy per cycle (fJ) of one macro replica at the operating
          point, from simulated toggle counts *)
}

(** [measure lib m ~crit_ps] — the shmoo grid annotated with simulated
    energy per cycle at every operating point.

    The voltage axis of the grid costs no extra simulation: toggle
    counters depend only on the stimulus, and supply voltage only
    rescales each toggle's energy, so *one* toggle-accounting run per
    frequency serves the entire VDD column
    ({!Power.estimate_at_vdds}). Each frequency column streams [macs]
    MACs in [n_lanes] Monte Carlo replicas with its own deterministic
    stimulus (seeded from [seed] and the column index), pre-drawn and
    indexed by [n_lanes], never by the engine. The engine's slice
    ({!Engine.slice}) runs the ensemble in chunks of its lane width —
    63 replicas per bit-sliced run for [`Packed], one per run for
    [`Scalar] — and the chunks' counters are summed element-wise. Toggle
    counts are exact integers, so every engine at the same [n_lanes]
    yields bit-identical energies. Raises [Invalid_argument] when
    [n_lanes < 1].

    Columns fan out over the pool; the fanout-load map is built once
    and shared by every column. *)
let measure ?(vdds = default_vdds) ?(freqs_mhz = default_freqs_mhz)
    ?(engine : Engine.t = `Packed) ?(n_lanes = Sim_sliced.word_lanes)
    ?(seed = 0xF19) ?(macs = 4) (ctx : Ctx.t) (m : Macro_rtl.t)
    ~crit_ps =
  if n_lanes < 1 then
    invalid_arg
      (Printf.sprintf "Fig9.measure: n_lanes must be >= 1, got %d" n_lanes);
  let lib = Ctx.lib ctx in
  let module E = (val Engine.slice engine) in
  let module B = Testbench.Sliced (E) in
  let jobs = Ctx.jobs ctx in
  let grid = shmoo ~vdds ~freqs_mhz ?jobs lib.Library.node ~crit_ps in
  let d = m.Macro_rtl.design in
  let loads = Ir.fanout_loads d lib () in
  let columns =
    Pool.parallel_map ?jobs
      (fun fi ->
        let rng = Rng.create (seed + (fi * 7919)) in
        let weights =
          Array.init n_lanes (fun _ ->
              Testbench.random_weights rng m ~density:0.5)
        in
        let inputs =
          Array.init macs (fun _ ->
              Array.init n_lanes (fun _ ->
                  Array.init m.Macro_rtl.cfg.Macro_rtl.rows (fun _ ->
                      Testbench.random_input ~realistic:true rng m
                        ~density:0.5)))
        in
        let toggles = ref [||]
        and en_cycles = ref [||]
        and cycles = ref 0
        and weight_flips = ref 0 in
        let add dst src =
          if Array.length !dst = 0 then dst := Array.copy src
          else Array.iteri (fun i v -> !dst.(i) <- !dst.(i) + v) src
        in
        let start = ref 0 in
        while !start < n_lanes do
          let first = !start and n = min E.max_lanes (n_lanes - !start) in
          let sim = E.create ~n_lanes:n d in
          if m.Macro_rtl.cfg.Macro_rtl.mcr > 1 then E.set_bus sim "copy_sel" 0;
          B.load_weights_lanes m sim ~copy:0 (Array.sub weights first n);
          E.reset_stats sim;
          B.run_stream_with m sim ~macs ~next_inputs:(fun k ->
              Array.sub inputs.(k) first n);
          add toggles (E.toggles sim);
          add en_cycles (E.en_cycles sim);
          cycles := !cycles + (E.cycles sim * n);
          weight_flips := !weight_flips + E.weight_flips sim;
          start := first + n
        done;
        let freq_hz = freqs_mhz.(fi) *. 1e6 in
        Power.estimate_at_vdds d lib ~toggles:!toggles ~en_cycles:!en_cycles
          ~cycles:!cycles ~weight_flips:!weight_flips ~freq_hz ~vdds ~loads ()
        |> Array.map (fun (r : Power.report) -> r.Power.energy_per_cycle_fj))
      (List.init (Array.length freqs_mhz) Fun.id)
    |> Array.of_list
  in
  let energy_fj =
    Array.init (Array.length vdds) (fun vi ->
        Array.init (Array.length freqs_mhz) (fun fi -> columns.(fi).(vi)))
  in
  { grid; energy_fj }
