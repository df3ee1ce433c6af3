(** Coverage-driven specification fuzzer.

    Generates valid {!Spec.t} instances deterministically from a seed,
    stratified so every fuzz campaign covers the axes the datapath
    actually branches on: array dimensions, INT widths and FP formats,
    memory-compute ratio, and frequency/preference targets. Stratification
    is round-robin over the cross product (index [i] walks each axis at a
    different co-prime stride), so even a short campaign touches every
    precision and every dimension class rather than sampling the bulk of
    a uniform distribution.

    A failing spec can be *shrunk*: {!shrink} proposes strictly simpler
    neighbours (fewer rows, narrower precisions, fewer copies…) and
    {!shrink_to_minimal} greedily descends while the caller's predicate
    still fails, yielding a minimal reproducer — the spec every debug
    session wants instead of the 32x32 FP8 monster the fuzzer found
    first. *)

(* Strata. Dimensions stay small enough that a smoke campaign of a few
   hundred specs builds and simulates in seconds, while still crossing
   every structural boundary (single word, many words, deep trees). *)
let rows_strata = [| 2; 4; 8; 16; 32 |]
let cols_strata = [| 8; 16; 32 |]
let mcr_strata = [| 1; 2; 4 |]

let input_strata =
  [|
    Precision.int1; Precision.int2; Precision.int4; Precision.int8;
    Precision.fp4; Precision.fp8; Precision.bf16;
  |]

(* Weights are stored and fused as integers; FP weights are not a valid
   macro configuration, so the weight axis is INT-only. *)
let weight_strata = [| Precision.int1; Precision.int2; Precision.int4;
                       Precision.int8 |]

let freq_strata = [| 400e6; 600e6; 800e6; 1000e6 |]

let pref_strata =
  [|
    Spec.Balanced; Spec.Prefer_power; Spec.Prefer_area;
    Spec.Prefer_performance;
  |]

let wb_of p = Precision.datapath_bits p

(* Repair the raw stratum choice into a legal configuration: the macro
   requires cols to be a positive multiple of the weight width. *)
let legalize ~cols ~weight_prec =
  let wb = wb_of weight_prec in
  let cols = max cols wb in
  cols - (cols mod wb)

(** [generate ~seed ~count] — [count] specs, deterministic in [seed].
    Spec [i] of a campaign only depends on [seed] and [i], so parallel
    workers can regenerate any spec independently. *)
let generate ~seed ~count : Spec.t list =
  List.init count (fun i ->
      (* per-index deterministic draw: a small LCG step decorrelates the
         axes without any shared mutable stream *)
      let h = (seed + (i * 0x9E3779B1)) land 0x3FFFFFFF in
      let pick arr salt = arr.((h / salt) mod Array.length arr) in
      let weight_prec = pick weight_strata 7 in
      let input_prec = pick input_strata 3 in
      let rows = pick rows_strata 1 in
      let cols = legalize ~cols:(pick cols_strata 5) ~weight_prec in
      {
        Spec.rows;
        cols;
        mcr = pick mcr_strata 11;
        input_prec;
        weight_prec;
        mac_freq_hz = pick freq_strata 13;
        weight_update_freq_hz = pick freq_strata 17;
        vdd = 0.9;
        preference = pick pref_strata 19;
      })

(* Simpler-precision ladder: FP shrinks into the INT ladder (an FP
   reproducer that also fails as INT is strictly easier to debug). *)
let simpler_precisions = function
  | Precision.Int 1 -> []
  | Precision.Int w -> [ Precision.Int (w / 2) ]
  | Precision.Fp _ -> [ Precision.int4; Precision.int1 ]

(** [shrink s] — strictly simpler candidate specs, most aggressive
    first. Every candidate is legal; the list is empty iff [s] is already
    minimal on every axis. *)
let shrink (s : Spec.t) : Spec.t list =
  let cands = ref [] in
  let add c = cands := c :: !cands in
  (* canonicalize the non-functional axes first so reproducers are
     uniform: preference and update frequency never change function *)
  if s.Spec.preference <> Spec.Balanced then
    add { s with Spec.preference = Spec.Balanced };
  if s.Spec.weight_update_freq_hz <> s.Spec.mac_freq_hz then
    add { s with Spec.weight_update_freq_hz = s.Spec.mac_freq_hz };
  if s.Spec.mcr > 1 then add { s with Spec.mcr = s.Spec.mcr / 2 };
  if s.Spec.rows > 2 then add { s with Spec.rows = s.Spec.rows / 2 };
  let wb = wb_of s.Spec.weight_prec in
  if s.Spec.cols / 2 >= wb && s.Spec.cols mod 2 = 0 then
    add { s with Spec.cols = s.Spec.cols / 2 };
  List.iter
    (fun p -> add { s with Spec.input_prec = p })
    (simpler_precisions s.Spec.input_prec);
  List.iter
    (fun p ->
      let cols = legalize ~cols:s.Spec.cols ~weight_prec:p in
      add { s with Spec.weight_prec = p; cols })
    (simpler_precisions s.Spec.weight_prec);
  List.rev !cands

(** [shrink_to_minimal ~fails s] — greedy descent: repeatedly adopt the
    first shrink candidate on which [fails] still holds, until no
    candidate fails. Returns the minimal reproducer and the number of
    successful shrink steps. [fails s] must be true on entry. Terminates:
    every candidate strictly decreases (rows, cols, precision widths,
    mcr) or canonicalizes a once-only axis. *)
let shrink_to_minimal ~(fails : Spec.t -> bool) (s : Spec.t) :
    Spec.t * int =
  let rec go s steps =
    match List.find_opt fails (shrink s) with
    | Some s' -> go s' (steps + 1)
    | None -> (s, steps)
  in
  go s 0
