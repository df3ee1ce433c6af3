(** Directed corner vectors for the differential checker, as
    {!Testbench.job}s on weight copy 0.

    Random vectors almost never hit the corners DCIM datapaths break on:
    the two's-complement sign boundary (INT_MIN has no positive
    counterpart, so a dropped sign cycle or a mis-negated MSB column is
    invisible on typical values), the full-popcount carry chain (every
    row contributing forces the adder tree's longest carries), and the FP
    alignment edges (max-exponent groups, subnormals flushed to zero,
    signed zeros). Each vector set below targets one of those corners;
    the checker runs all of them on every fuzzed spec, before any random
    batches. *)

let int_min w = if w = 1 then 0 else - (Intmath.pow2 (w - 1))
let int_max w = if w = 1 then 1 else Intmath.pow2 (w - 1) - 1

(* a weight pattern over [words][rows]: [a] on even rows, [b] on odd *)
let alternating_words (m : Macro_rtl.t) a b =
  Array.init m.words (fun _ ->
      Array.init m.cfg.rows (fun r -> if r mod 2 = 0 then a else b))

(* FP input patterns *)
let fp_max f =
  Fpfmt.pack f ~sign:false
    ~exp:(Intmath.pow2 f.Fpfmt.exp_bits - 1)
    ~man:(Intmath.pow2 f.Fpfmt.man_bits - 1)

let fp_min_subnormal f = Fpfmt.pack f ~sign:false ~exp:0 ~man:1
let fp_neg_zero f = Fpfmt.pack f ~sign:true ~exp:0 ~man:0

(** [sets m] — the directed vector sets for macro [m]: weight corners
    crossed with input corners chosen for the macro's input precision. *)
let sets (m : Macro_rtl.t) : Testbench.job list =
  let rows = m.Macro_rtl.cfg.Macro_rtl.rows in
  let wb = m.Macro_rtl.wb in
  let all v = alternating_words m v v in
  let weight_corners =
    [
      (* all-ones bit pattern: for wb>1 this is -1 (every column active,
         sign column included); for wb=1 it is the full popcount *)
      ("w=-1(all-bits)", all (if wb = 1 then 1 else -1));
      ("w=max", all (int_max wb));
      ("w=min", all (int_min wb));
      ("w=min/max", alternating_words m (int_min wb) (int_max wb));
    ]
  in
  let input_corners =
    match m.Macro_rtl.cfg.Macro_rtl.input_prec with
    | Precision.Int w ->
        [
          (* full popcount saturation: every row drives every serial cycle *)
          ("x=-1(all-bits)", Array.make rows (if w = 1 then 1 else -1));
          ("x=min", Array.make rows (int_min w));
          ("x=max", Array.make rows (int_max w));
          ( "x=min/max",
            Array.init rows (fun r ->
                if r mod 2 = 0 then int_min w else int_max w) );
        ]
    | Precision.Fp f ->
        [
          (* all rows at the format's largest magnitude: the aligner's
             zero-shift, full-carry case *)
          ("x=fp_max", Array.make rows (fp_max f));
          (* one dominant exponent, everything else subnormal: the
             flush-to-zero path *)
          ( "x=fp_max/denorm",
            Array.init rows (fun r ->
                if r = 0 then fp_max f else fp_min_subnormal f) );
          (* signed zeros mixed with ordinary values: sign logic on a
             zero magnitude *)
          ( "x=neg_zero/one",
            Array.init rows (fun r ->
                if r mod 2 = 0 then fp_neg_zero f
                else Fpfmt.pack f ~sign:false ~exp:(Fpfmt.bias f) ~man:0) );
          (* subnormals only: group exponent pinned at 1 *)
          ("x=denorm", Array.make rows (fp_min_subnormal f));
        ]
  in
  List.concat_map
    (fun (wn, weights) ->
      List.map
        (fun (xn, inputs) ->
          { Testbench.name = Printf.sprintf "%s,%s" wn xn; weights; inputs;
            copy = 0 })
        input_corners)
    weight_corners

(** [random_sets rng m ~batches] — dense random vectors, the classic
    differential batch, as the tail of every campaign. *)
let random_sets rng (m : Macro_rtl.t) ~batches : Testbench.job list =
  List.init batches (fun i ->
      {
        Testbench.name = Printf.sprintf "random#%d" i;
        weights = Testbench.random_weights rng m ~density:1.0;
        inputs =
          Array.init m.Macro_rtl.cfg.Macro_rtl.rows (fun _ ->
              Testbench.random_input rng m ~density:1.0);
        copy = 0;
      })
