(** The synthetic 40 nm-class cell library: per-cell PPA models.

    Every number is characterized at the node's nominal voltage (1.1 V) and
    scaled at use sites via {!Voltage}. The delay model is the linear
    NLDM approximation [d(out) = intrinsic(out) + drive_res * load_ff],
    which is the same first-order model a Liberty table interpolates.

    Absolute values are calibrated so that an X1 inverter has FO4 = 20 ps,
    matching public 40 nm data, and a full-adder output toggle costs ~2 fJ
    internal energy (~3.5 fJ with a typical load at 1.1 V), the
    power-optimized-datapath figure 40 nm DCIM papers report; everything
    else is set relative to the
    inverter following standard-cell-library proportions. The paper's
    claims (compressors smaller/lower-power but slower than full adders;
    carry outputs faster than sum outputs; 1T pass-gate muxes small but slow
    and leaky) are encoded in these relative numbers.

    A library value is shared by every domain that compiles against it.
    Its (kind, drive) table is filled once by {!n40} (or {!map}) and never
    mutated, so reads need no lock. The one field written after
    construction is the fingerprint memo ({!memo_fingerprint}): it starts
    empty, is set at most once through [Atomic.compare_and_set], and only
    ever holds the digest of the immutable table, so a racing reader sees
    either nothing (and computes the same digest itself) or the final
    string. *)

type params = {
  kind : Cell.kind;
  drive : Cell.drive;
  area_um2 : float;
  input_cap_ff : float;  (** capacitance of one input pin *)
  clock_cap_ff : float;  (** clock-pin capacitance (sequential only) *)
  intrinsic_ps : float array;  (** per output pin, at nominal VDD *)
  drive_res_ps_per_ff : float;  (** slope of delay vs. output load *)
  energy_fj : float;  (** internal energy per output toggle *)
  clock_energy_fj : float;  (** energy per clock edge (sequential only) *)
  leakage_nw : float;
  setup_ps : float;  (** setup time (sequential only) *)
  clk_q_ps : float;  (** clock-to-Q delay (sequential only) *)
}

let comb ?(leak = 0.4) kind ~area ~cap ~intr ~res ~energy =
  {
    kind;
    drive = Cell.X1;
    area_um2 = area;
    input_cap_ff = cap;
    clock_cap_ff = 0.0;
    intrinsic_ps = intr;
    drive_res_ps_per_ff = res;
    energy_fj = energy;
    clock_energy_fj = 0.0;
    leakage_nw = leak;
    setup_ps = 0.0;
    clk_q_ps = 0.0;
  }

let seq kind ~area ~cap ~clk_cap ~energy ~clk_energy ~setup ~clk_q ~res =
  {
    kind;
    drive = Cell.X1;
    area_um2 = area;
    input_cap_ff = cap;
    clock_cap_ff = clk_cap;
    intrinsic_ps = [| clk_q |];
    drive_res_ps_per_ff = res;
    energy_fj = energy;
    clock_energy_fj = clk_energy;
    leakage_nw = 1.2;
    setup_ps = setup;
    clk_q_ps = clk_q;
  }

(** Base (X1) parameters for every kind.

    The arithmetic cells expose per-output intrinsics: for FA the carry
    output (index 1) is faster than sum (index 0); for COMP42 carry/cout
    are faster than sum — the slack the paper's connection-reordering
    optimization harvests. COMP42 does the work of two FAs in 1.7x the
    area and 1.5x the energy but with a slower sum path. *)
let base_params (k : Cell.kind) : params =
  match k with
  | Inv -> comb k ~area:0.7 ~cap:1.0 ~intr:[| 8.0 |] ~res:3.0 ~energy:0.6
  | Buf -> comb k ~area:1.1 ~cap:1.0 ~intr:[| 16.0 |] ~res:2.2 ~energy:0.9
  | Nand2 -> comb k ~area:1.0 ~cap:1.2 ~intr:[| 10.0 |] ~res:3.2 ~energy:0.9
  | Nor2 -> comb k ~area:1.0 ~cap:1.3 ~intr:[| 12.0 |] ~res:3.6 ~energy:0.9
  | And2 -> comb k ~area:1.3 ~cap:1.1 ~intr:[| 18.0 |] ~res:3.0 ~energy:1.1
  | Or2 -> comb k ~area:1.3 ~cap:1.1 ~intr:[| 19.0 |] ~res:3.0 ~energy:1.2
  | Xor2 -> comb k ~area:2.1 ~cap:1.8 ~intr:[| 24.0 |] ~res:3.8 ~energy:1.9
  | Xnor2 -> comb k ~area:2.1 ~cap:1.8 ~intr:[| 24.0 |] ~res:3.8 ~energy:1.9
  | Mux2 -> comb k ~area:2.0 ~cap:1.4 ~intr:[| 22.0 |] ~res:3.4 ~energy:1.5
  | Aoi22 -> comb k ~area:1.6 ~cap:1.3 ~intr:[| 16.0 |] ~res:3.8 ~energy:1.3
  | Oai22 -> comb k ~area:1.6 ~cap:1.3 ~intr:[| 15.0 |] ~res:3.8 ~energy:1.3
  | Ha ->
      comb k ~area:2.8 ~cap:1.8 ~intr:[| 26.0; 18.0 |] ~res:3.8 ~energy:2.1
  | Fa ->
      (* sum slower than carry: XOR3 path vs majority path *)
      comb k ~area:4.6 ~cap:2.0 ~intr:[| 46.0; 30.0 |] ~res:4.0 ~energy:3.5
  | Comp42 ->
      (* two-FA function at 1.7x FA area, 1.5x FA energy; the
         power/area-optimized compressor is markedly slower than an FA
         (sum 78 ps vs 46 ps), which is what makes the paper's
         FA-substitution-under-tight-timing technique pay off *)
      comb k ~area:7.8 ~cap:2.1 ~intr:[| 78.0; 50.0; 38.0 |] ~res:4.2
        ~energy:5.2 ~leak:0.7
  | Dff ->
      seq k ~area:4.5 ~cap:1.2 ~clk_cap:1.4 ~energy:1.7 ~clk_energy:1.0
        ~setup:25.0 ~clk_q:45.0 ~res:3.4
  | Dff_en ->
      seq k ~area:5.6 ~cap:1.3 ~clk_cap:1.4 ~energy:2.0 ~clk_energy:1.2
        ~setup:28.0 ~clk_q:48.0 ~res:3.4
  | Sram S6t ->
      (* high-density foundry bit cell + read port; output drives the
         multiplier input *)
      comb k ~area:0.6 ~cap:0.0 ~intr:[| 30.0 |] ~res:6.0 ~energy:0.5
        ~leak:0.05
  | Sram S8t ->
      (* 8T D-latch cell: robust read/write, bigger, stronger read drive *)
      comb k ~area:1.05 ~cap:0.0 ~intr:[| 24.0 |] ~res:4.5 ~energy:0.6
        ~leak:0.08
  | Sram S12t ->
      (* 12T OAI-based cell: design-feasibility oriented, largest *)
      comb k ~area:1.55 ~cap:0.0 ~intr:[| 20.0 |] ~res:4.0 ~energy:0.8
        ~leak:0.12
  | Mul Tg_nor ->
      (* 2T transmission gate + NOR multiply: the commonly adopted point *)
      comb k ~area:1.5 ~cap:1.3 ~intr:[| 16.0 |] ~res:3.6 ~energy:1.0
        ~leak:0.35
  | Mul Pass_1t ->
      (* 1T passing gate: area-efficient but the threshold drop makes it
         slow and leaky (AutoDCIM's choice) *)
      comb k ~area:0.8 ~cap:1.0 ~intr:[| 34.0 |] ~res:6.5 ~energy:1.4
        ~leak:1.1
  | Mul Oai22_fused ->
      (* fused multiplier+mux: saves wiring, only usable when MCR <= 2 *)
      comb k ~area:1.9 ~cap:1.3 ~intr:[| 17.0 |] ~res:3.9 ~energy:1.2
        ~leak:0.4
  | Tgmux2 ->
      comb k ~area:1.4 ~cap:1.2 ~intr:[| 14.0 |] ~res:3.3 ~energy:1.0
  | Ptmux2 ->
      comb k ~area:0.9 ~cap:1.0 ~intr:[| 26.0 |] ~res:5.8 ~energy:1.2
        ~leak:0.9

(** Upsizing trades area/power for drive: X2 halves the drive resistance at
    ~1.8x area/energy and ~1.9x input capacitance. *)
let apply_drive (p : params) (d : Cell.drive) : params =
  let scale ~a ~c ~r ~e =
    {
      p with
      drive = d;
      area_um2 = p.area_um2 *. a;
      input_cap_ff = p.input_cap_ff *. c;
      clock_cap_ff = p.clock_cap_ff *. c;
      drive_res_ps_per_ff = p.drive_res_ps_per_ff *. r;
      energy_fj = p.energy_fj *. e;
      clock_energy_fj = p.clock_energy_fj *. e;
      leakage_nw = p.leakage_nw *. a;
    }
  in
  match d with
  | Cell.X1 -> p
  | Cell.X2 -> scale ~a:1.8 ~c:1.9 ~r:0.55 ~e:1.8
  | Cell.X4 -> scale ~a:3.2 ~c:3.6 ~r:0.32 ~e:3.2

type t = {
  node : Node.t;
  table : params array;
      (** dense (kind, drive) table: slot
          [Cell.kind_index k * Cell.n_drives + Cell.drive_index d] *)
  fingerprint : string option Atomic.t;
      (** the characterization digest, filled on first use by
          {!memo_fingerprint} *)
}

let slot k d = (Cell.kind_index k * Cell.n_drives) + Cell.drive_index d

(** [n40 ()] builds the synthetic 40 nm library. The table is filled
    eagerly over {!Cell.all_kinds} x {!Cell.all_drives} and never mutated
    afterwards — which is what lets parallel searcher domains share one
    library without locking. The fingerprint memo starts empty: a
    compile that never opens a compile cache never pays for the digest. *)
let n40 () =
  let table = Array.make (Cell.n_kinds * Cell.n_drives) (base_params Cell.Inv) in
  List.iter
    (fun k ->
      List.iter
        (fun d -> table.(slot k d) <- apply_drive (base_params k) d)
        Cell.all_drives)
    Cell.all_kinds;
  { node = Node.n40; table; fingerprint = Atomic.make None }

(** [params t k d] looks up the PPA model of kind [k] at drive [d]: one
    array read, on the path every sizing, timing, power and placement
    pass takes once per instance. *)
let params t k d = t.table.(slot k d)

(** [map f t] is [t] with every (kind, drive) model passed through [f] —
    a recharacterized library. Its fingerprint memo starts empty: the
    new table needs its own digest, and inheriting [t]'s would address
    the recharacterized library's compiles under [t]'s cache keys. *)
let map f t =
  { t with table = Array.map f t.table; fingerprint = Atomic.make None }

(** [memo_fingerprint t digest] is [digest t], computed on the first call
    for this library value and returned — physically the same string — on
    every later one. [digest] must be a pure function of the library.
    Racing domains may each compute it; the first [compare_and_set] wins
    and every caller returns the winner. (A [Lazy.t] would not do: forcing
    one from two domains at once raises [Lazy.Undefined].) *)
let memo_fingerprint t digest =
  match Atomic.get t.fingerprint with
  | Some fp -> fp
  | None ->
      let fp = digest t in
      if Atomic.compare_and_set t.fingerprint None (Some fp) then fp
      else Option.get (Atomic.get t.fingerprint)

(** [delay_ps t ~kind ~drive ~out ~load_ff] is the nominal-voltage delay of
    output pin [out] driving [load_ff]. [Sta.analyze] and [Sta.slacks]
    inline this exact expression in their loops; change them with it. *)
let delay_ps t ~kind ~drive ~out ~load_ff =
  let p = params t kind drive in
  let n = Array.length p.intrinsic_ps in
  let out = if out < n then out else n - 1 in
  p.intrinsic_ps.(out) +. (p.drive_res_ps_per_ff *. load_ff)
