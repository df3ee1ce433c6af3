(** Paper Figure 7: post-layout energy efficiency of SynDCIM-generated
    macros across precisions (INT4, INT8, FP8, BF16) and dimensions
    (32x32 … 256x256).

    One macro is compiled per (dimension, precision) point. FP inputs are
    aligned on-line by the generated FP&INT alignment unit; FP weights are
    pre-aligned at load time into the stored integer mantissas (DESIGN.md
    documents this substitution — the paper's runtime-reconfigurable
    datapath is realized as per-precision datapath instances, which
    preserves the trend Fig. 7 plots: the alignment/OFU overhead of FP
    relative to INT).

    Efficiency is reported in 1b x 1b-normalized TOPS/W, the paper's unit,
    measured post-layout at the paper's sparsity (12.5 % input, 50 %
    weight). *)

type point = {
  dim : int;
  precision : string;
  power_mw : float;
  tops_native : float;
  tops_w_native : float;
  tops_w_1b : float;
  closed : bool;
}

let precisions : (string * Precision.t * Precision.t) list =
  [
    ("INT4", Precision.int4, Precision.int4);
    ("INT8", Precision.int8, Precision.int8);
    ("FP8", Precision.fp8, Precision.int8);
    ("BF16", Precision.bf16, Precision.int8);
  ]

(** The MAC frequency used for every Fig. 7 point; moderate so even the
    256x256 arrays close timing post-layout and the comparison stays
    iso-frequency as in the paper. *)
let freq_hz = 300e6

let vdd = 0.9

let spec ~dim ~input_prec ~weight_prec : Spec.t =
  {
    Spec.rows = dim;
    cols = dim;
    mcr = 1;
    input_prec;
    weight_prec;
    mac_freq_hz = freq_hz;
    weight_update_freq_hz = freq_hz;
    vdd;
    preference = Spec.Prefer_power;
  }

let run_point ctx ~dim ~name ~input_prec ~weight_prec =
  let a =
    Pipeline.artifact_exn
      (Pipeline.run ctx (spec ~dim ~input_prec ~weight_prec))
  in
  let m = a.Pipeline.metrics in
  {
    dim;
    precision = name;
    power_mw = m.Pipeline.power_w *. 1e3;
    tops_native = m.Pipeline.tops;
    tops_w_native = m.Pipeline.tops_per_w;
    tops_w_1b = m.Pipeline.tops_per_w *. m.Pipeline.ops_norm;
    closed = a.Pipeline.timing_closed;
  }

(** [run ctx ~dims] computes the full figure; [dims] defaults to the
    paper's four sizes. The (dimension, precision) grid points are
    independent compilations, so they fan out over the context's domain
    pool. *)
let run ?(dims = [ 32; 64; 128; 256 ]) (ctx : Ctx.t) =
  let grid =
    List.concat_map (fun dim -> List.map (fun p -> (dim, p)) precisions) dims
  in
  Pool.parallel_map ?jobs:(Ctx.jobs ctx)
    (fun (dim, (name, ip, wp)) ->
      run_point ctx ~dim ~name ~input_prec:ip ~weight_prec:wp)
    grid

let table points =
  let rows =
    List.map
      (fun p ->
        [
          Printf.sprintf "%dx%d" p.dim p.dim;
          p.precision;
          Table.f p.power_mw;
          Table.f ~digits:3 p.tops_native;
          Table.f p.tops_w_native;
          Table.f ~digits:0 p.tops_w_1b;
          (if p.closed then "yes" else "no");
        ])
      points
  in
  Table.make
    ~header:
      [
        "array"; "precision"; "power (mW)"; "TOPS"; "TOPS/W";
        "TOPS/W (1b)"; "timing";
      ]
    rows

(** FP-over-INT power overhead at one dimension, for the paper's "FP8 and
    BF16 consume around 10 % and 20 % more power" claim. *)
let fp_overheads points ~dim =
  let find prec =
    List.find_opt (fun p -> p.dim = dim && p.precision = prec) points
  in
  match (find "INT8", find "FP8", find "BF16") with
  | Some i8, Some f8, Some b16 ->
      Some
        ( (f8.power_mw /. i8.power_mw -. 1.0) *. 100.0,
          (b16.power_mw /. i8.power_mw -. 1.0) *. 100.0 )
  | _ -> None

let print points =
  print_endline
    "Figure 7 — post-layout energy efficiency vs precision and dimension";
  Table.print (table points);
  let dims = List.sort_uniq compare (List.map (fun p -> p.dim) points) in
  List.iter
    (fun dim ->
      match fp_overheads points ~dim with
      | Some (f8, b16) ->
          Printf.printf
            "%dx%d: FP8 power overhead vs INT8 = %+.1f %%, BF16 = %+.1f %%\n"
            dim dim f8 b16
      | None -> ())
    dims
