(** User-facing macro specification (the compiler's input, paper Fig. 2):
    architectural parameters (dimensions, precisions, MCR) plus performance
    constraints (MAC frequency, weight-update frequency, operating voltage)
    and a PPA preference. *)

type preference =
  | Prefer_power  (** energy-efficiency first (wearables, edge) *)
  | Prefer_area  (** silicon cost first *)
  | Prefer_performance  (** throughput first (cloud) *)
  | Balanced

let preference_name = function
  | Prefer_power -> "power"
  | Prefer_area -> "area"
  | Prefer_performance -> "performance"
  | Balanced -> "balanced"

type t = {
  rows : int;  (** H *)
  cols : int;  (** W *)
  mcr : int;
  input_prec : Precision.t;  (** widest input format the macro serves *)
  weight_prec : Precision.t;
  mac_freq_hz : float;  (** target MAC clock at [vdd] *)
  weight_update_freq_hz : float;
  vdd : float;  (** operating supply for the constraints *)
  preference : preference;
}

(** The paper's Fig. 8 specification: H = W = 64, MCR = 2, INT4/8 + FP4/8,
    MAC and weight update at 800 MHz @ 0.9 V. The widest served formats
    are INT8 inputs and 8-bit weights (FP8 aligns into the same width). *)
let fig8 =
  {
    rows = 64;
    cols = 64;
    mcr = 2;
    input_prec = Precision.int8;
    weight_prec = Precision.int8;
    mac_freq_hz = 800e6;
    weight_update_freq_hz = 800e6;
    vdd = 0.9;
    preference = Balanced;
  }

(** [initial_config spec] is Algorithm 1's step 1: every subcircuit set to
    its SPEC-defined configuration where the spec pins one down
    (dimensions, precisions, MCR) and to the library default otherwise. *)
let initial_config (s : t) : Macro_rtl.config =
  Macro_rtl.default ~rows:s.rows ~cols:s.cols ~mcr:s.mcr
    ~input_prec:s.input_prec ~weight_prec:s.weight_prec

(** Nominal-voltage critical-path budget (ps) implied by the spec: the
    period at [mac_freq_hz] divided by the voltage derating at [vdd]. *)
let nominal_budget_ps (s : t) (node : Node.t) =
  let period_ps = 1e12 /. s.mac_freq_hz in
  period_ps /. Voltage.delay_scale node ~vdd:s.vdd

(** Fraction of the cycle reserved for routed-wire delay during the
    pre-layout search: the first attempt's wire-load margin. It is often
    not enough (7 of the 15 attempts of the eight paper-scale macros miss
    routed timing), and the pipeline's retry policy then tightens the
    search's clock for the next attempt. *)
let wire_derate = 0.22

(** Pre-layout timing target used by the searcher. *)
let search_budget_ps (s : t) (node : Node.t) =
  nominal_budget_ps s node *. (1.0 -. wire_derate)

let describe (s : t) =
  Printf.sprintf
    "%dx%d MCR=%d %s x %s @ %.0f MHz (%.2f V, wupd %.0f MHz, prefer %s)"
    s.rows s.cols s.mcr
    (Precision.name s.input_prec)
    (Precision.name s.weight_prec)
    (s.mac_freq_hz /. 1e6) s.vdd
    (s.weight_update_freq_hz /. 1e6)
    (preference_name s.preference)
