(** Metamorphic properties of the searcher and the subcircuit library.

    Two families:

    - *Move preservation*: every structural move Algorithm 1 can apply to
      a configuration — retiming, column splitting, pipelining, shift-
      adder and tree substitution, register fusion — must preserve the
      macro's function. Each variant of a spec's initial configuration is
      driven through the same directed + random transactions and must
      match {!Golden} (hence, by transitivity, match every other
      variant). Latency-preserving pairs are additionally cross-checked
      with {!Equiv.check}, whose post-drain hold window now watches every
      cycle.

    - *LUT monotonicity*: the PPA estimates the searcher ranks candidates
      by must be monotone along the axes the search walks — deeper trees
      are slower, bigger arrays are bigger, tighter frequency targets
      mean smaller budgets, lower supplies mean longer delays. A
      non-monotone LUT silently derails the greedy walk even when every
      individual entry is plausible. *)

type result = { name : string; ok : bool; detail : string }

(* ---------------- move preservation ---------------- *)

(** [variants spec] — the searcher moves applicable to the spec's initial
    configuration, as (technique name, config) pairs. The base
    configuration itself is checked by the differential pass. *)
let variants (spec : Spec.t) : (string * Macro_rtl.config) list =
  let base = Spec.initial_config spec in
  let splittable =
    base.Macro_rtl.rows mod 2 = 0 && base.Macro_rtl.rows >= 4
  in
  List.concat
    [
      [
        ("tt2:retime_final_rca", { base with Macro_rtl.retime_final_rca = true });
        ("tt4:retime_ofu", { base with Macro_rtl.ofu_retime = true });
        ("tt5:pipe_ofu", { base with Macro_rtl.ofu_extra_pipe = true });
        ( "tt1:carry_save_sa",
          { base with Macro_rtl.sa_kind = Shift_adder.Carry_save } );
        ( "tt1:fa_tree",
          {
            base with
            Macro_rtl.tree = Adder_tree.Csa { fa_ratio = 1.0; reorder = true };
          } );
        ("fuse:tree_sa", { base with Macro_rtl.reg_after_tree = false });
        ("ft:pass_1t_mul", { base with Macro_rtl.mul_kind = Cell.Pass_1t });
      ];
      (if splittable then
         [ ("tt3:split_column", { base with Macro_rtl.tree_split = 2 }) ]
       else []);
    ]

(** [check_moves ?jobs ~seed ctx spec] — build every variant and check
    it differentially; one result per move. Variants fan out over the
    pool (width from the context unless [?jobs] overrides), and within
    each variant the random-vector batch packs 63-wide through the
    bit-sliced engine; the results are job-count-invariant. *)
let check_moves ?jobs ~seed (ctx : Ctx.t) (spec : Spec.t) : result list =
  let jobs = match jobs with Some j -> Some j | None -> Ctx.jobs ctx in
  let lib = Ctx.lib ctx in
  Pool.parallel_map ?jobs
    (fun (name, cfg) ->
      let m = Macro_rtl.build lib cfg in
      let o = Diffcheck.check_macro ~seed ~random_batches:1 m in
      match o.Diffcheck.failure with
      | None ->
          { name; ok = true; detail = Printf.sprintf "%d checks" o.Diffcheck.checks }
      | Some f -> { name; ok = false; detail = Diffcheck.describe_failure f })
    (variants spec)

(** [check_equiv_pair ~seed ctx spec] — cycle-level equivalence between
    the base configuration and its latency-preserving tree substitution,
    through the glitch-proof {!Equiv.check} (vectors pack as lanes of
    the packed engine). *)
let check_equiv_pair ~seed (ctx : Ctx.t) (spec : Spec.t) : result =
  let lib = Ctx.lib ctx in
  let base = Spec.initial_config spec in
  let sub =
    {
      base with
      Macro_rtl.tree = Adder_tree.Csa { fa_ratio = 1.0; reorder = true };
    }
  in
  let a = (Macro_rtl.build lib base).Macro_rtl.design in
  let b = (Macro_rtl.build lib sub).Macro_rtl.design in
  match Equiv.check ~seed ~vectors:12 ~settle:12 ~hold:4 a b with
  | Equiv.Equivalent n ->
      {
        name = "equiv:tree_substitution";
        ok = true;
        detail = Printf.sprintf "%d vectors" n;
      }
  | Equiv.Mismatch { vector; cycle; bus; a; b } ->
      {
        name = "equiv:tree_substitution";
        ok = false;
        detail =
          Printf.sprintf "vector %d cycle %d bus %s: %d vs %d" vector cycle
            bus a b;
      }

(* ---------------- LUT monotonicity ---------------- *)

let mono ~name ~detail xs le =
  let rec ok = function
    | a :: (b :: _ as rest) -> le a b && ok rest
    | _ -> true
  in
  { name; ok = ok xs; detail }

(** [lut_monotonicity ctx] — the monotonicity battery over the context's
    SCL and the spec-derived timing constraints. *)
let lut_monotonicity (ctx : Ctx.t) : result list =
  let lib = Ctx.lib ctx and scl = Ctx.scl ctx in
  let heights = [ 8; 16; 32; 64 ] in
  let topo = Adder_tree.Csa { fa_ratio = 0.0; reorder = false } in
  let tree_delays =
    List.map
      (fun rows -> (Scl.adder_tree scl ~topology:topo ~rows).Ppa.delay_ps)
      heights
  in
  let cfg rows cols =
    Macro_rtl.default ~rows ~cols ~mcr:1 ~input_prec:Precision.int8
      ~weight_prec:Precision.int8
  in
  let est rows cols = Scl.estimate_macro scl (cfg rows cols) in
  let areas =
    [ (est 16 16).Ppa.area_um2; (est 32 16).Ppa.area_um2;
      (est 32 32).Ppa.area_um2 ]
  in
  let est_delays =
    [ (est 8 16).Ppa.delay_ps; (est 64 16).Ppa.delay_ps ]
  in
  let spec_at freq =
    { Spec.fig8 with Spec.rows = 16; cols = 16; mac_freq_hz = freq }
  in
  let budgets =
    List.map
      (fun f -> Spec.nominal_budget_ps (spec_at f) lib.Library.node)
      [ 400e6; 600e6; 800e6; 1000e6 ]
  in
  let derate =
    Spec.search_budget_ps (spec_at 800e6) lib.Library.node
    < Spec.nominal_budget_ps (spec_at 800e6) lib.Library.node
  in
  let scales =
    List.map
      (fun vdd -> Voltage.delay_scale lib.Library.node ~vdd)
      [ 0.7; 0.9; 1.1 ]
  in
  [
    mono ~name:"lut:tree_delay_vs_rows"
      ~detail:"characterized tree delay non-decreasing in height"
      tree_delays (fun a b -> a <= b +. 1e-9);
    mono ~name:"lut:macro_area_vs_dims"
      ~detail:"composed macro area strictly increasing in rows and cols"
      areas (fun a b -> a < b);
    mono ~name:"lut:macro_delay_vs_rows"
      ~detail:"composed macro delay non-decreasing in rows" est_delays
      (fun a b -> a <= b +. 1e-9);
    mono ~name:"spec:budget_vs_freq"
      ~detail:"cycle budget strictly decreasing in target frequency"
      budgets (fun a b -> a > b);
    {
      name = "spec:search_budget_derated";
      ok = derate;
      detail = "pre-layout budget below nominal budget";
    };
    mono ~name:"tech:delay_scale_vs_vdd"
      ~detail:"delay derating non-increasing in supply" scales
      (fun a b -> a >= b -. 1e-9);
  ]
