(** The multi-spec-oriented (MSO) searcher: the paper's Algorithm 1,
    "Heuristic Hierarchical Search".

    Step 1 sets every subcircuit from the spec (or its default). Step 2
    closes timing: while the MAC path (WL driver → multiplier → adder
    tree) violates, it applies throughput techniques tt1 (a faster adder
    tree from the SCL), tt2 (retime the tree's output register before the
    final RCA) and tt3 (split the column height) in sequence; while the
    OFU path violates, tt4 (retime fusion logic into the S&A stage) and
    tt5 (an extra OFU pipeline stage). Cell sizing acts as the synthesis
    engine's own effort within each evaluation. Step 3 recovers latency by
    removing pipeline registers that the remaining slack allows. Step 4
    fine-tunes toward the spec's PPA preference by substituting
    power/area-efficient subcircuits while timing still closes.

    The searcher records every point it evaluates, so a Pareto sweep over
    preferences falls out of the same machinery. *)

type technique =
  | Tt1_faster_adder of Adder_tree.topology
  | Tt1_faster_sa of Shift_adder.kind
  | Tt1_faster_ofu_adder
  | Tt2_retime_tree
  | Tt3_split_column of int
  | Tt4_retime_ofu
  | Tt5_pipe_ofu
  | Align_pipe of int
  | Fuse_tree_sa
  | Fuse_sa_ofu
  | Ft_substitute of string

let technique_name = function
  | Tt1_faster_adder t ->
      Printf.sprintf "tt1: faster adder (%s)" (Adder_tree.topology_name t)
  | Tt1_faster_sa k ->
      Printf.sprintf "tt1: faster shift-adder (%s)" (Shift_adder.kind_name k)
  | Tt1_faster_ofu_adder -> "tt1: carry-select adders in the OFU"
  | Tt2_retime_tree -> "tt2: retime tree output register before final RCA"
  | Tt3_split_column s -> Printf.sprintf "tt3: split column height (x%d)" s
  | Tt4_retime_ofu -> "tt4: retime OFU stage into S&A"
  | Tt5_pipe_ofu -> "tt5: extra OFU pipeline stage"
  | Align_pipe n -> Printf.sprintf "deepen FP aligner pipeline (%d)" n
  | Fuse_tree_sa -> "latency: fuse adder tree with S&A (drop register)"
  | Fuse_sa_ofu -> "latency: fuse S&A with OFU (drop register)"
  | Ft_substitute s -> Printf.sprintf "ft: substitute %s" s

(** Version tag of the search algorithm, folded into the persistent
    compile-cache key ({!Disk_cache}). Bump it whenever a change to the
    technique ladders, the evaluation model or the walk order can alter
    which design a spec compiles to, so a newer searcher never serves a
    stale cached result. *)
let algorithm_version = "mso-hhs-2"

type result = {
  spec : Spec.t;
  final : Design_point.t;
  applied : technique list;  (** in application order *)
  visited : Design_point.t list;  (** every evaluated point *)
  timing_closed : bool;
}

(* Candidate next configuration for a violating stage, or None when the
   technique ladder for that stage is exhausted. *)
let next_mac_technique scl (cfg : Macro_rtl.config) =
  match Scl.faster_tree scl ~rows:(cfg.rows / cfg.tree_split) ~than:cfg.tree with
  | Some topo -> Some (Tt1_faster_adder topo, { cfg with tree = topo })
  | None ->
      if not cfg.retime_final_rca then
        Some (Tt2_retime_tree, { cfg with retime_final_rca = true })
      else if cfg.tree_split < 4 && cfg.rows mod (cfg.tree_split * 2) = 0
      then
        let s = cfg.tree_split * 2 in
        Some (Tt3_split_column s, { cfg with tree_split = s })
      else None

let next_sa_technique (cfg : Macro_rtl.config) =
  match cfg.sa_kind with
  | Shift_adder.Ripple ->
      Some
        ( Tt1_faster_sa Shift_adder.Lsb_right,
          { cfg with sa_kind = Shift_adder.Lsb_right } )
  | Shift_adder.Lsb_right ->
      Some
        ( Tt1_faster_sa Shift_adder.Carry_save,
          { cfg with sa_kind = Shift_adder.Carry_save } )
  | Shift_adder.Carry_save -> None

let next_ofu_technique (cfg : Macro_rtl.config) =
  if not cfg.ofu_fast_adder then
    Some (Tt1_faster_ofu_adder, { cfg with ofu_fast_adder = true })
  else if not cfg.ofu_retime then
    Some (Tt4_retime_ofu, { cfg with ofu_retime = true })
  else if not cfg.ofu_extra_pipe then
    Some (Tt5_pipe_ofu, { cfg with ofu_extra_pipe = true })
  else None

let next_align_technique (cfg : Macro_rtl.config) =
  if cfg.align_pipeline < 3 then
    Some
      ( Align_pipe (cfg.align_pipeline + 1),
        { cfg with align_pipeline = cfg.align_pipeline + 1 } )
  else None

(* Evaluation entry point for every search step: through the shared
   memoizing cache when one is given, direct otherwise. *)
let evaluate_via ?cache lib spec cfg =
  match cache with
  | Some c -> Eval_cache.evaluate c lib spec cfg
  | None -> Design_point.evaluate lib spec cfg

(* Step 2: timing closure. Budget-limited to a dozen structural moves. *)
let close_timing ?cache lib scl spec cfg0 =
  let visited = ref [] in
  let eval cfg =
    let p = evaluate_via ?cache lib spec cfg in
    visited := p :: !visited;
    p
  in
  let rec go cfg applied round =
    let p = eval cfg in
    if p.Design_point.meets_mac || round > 12 then (p, List.rev applied)
    else
      let move =
        match Design_point.critical_stage p with
        | Design_point.Mac_path -> next_mac_technique scl cfg
        | Design_point.Ofu_path -> (
            match next_ofu_technique cfg with
            | Some m -> Some m
            | None -> next_mac_technique scl cfg)
        | Design_point.Sa_path -> (
            match next_sa_technique cfg with
            | Some m -> Some m
            | None -> next_mac_technique scl cfg)
        | Design_point.Align_path -> next_align_technique cfg
      in
      match move with
      | None -> (p, List.rev applied)
      | Some (t, cfg') -> go cfg' (t :: applied) (round + 1)
  in
  let p, applied = go cfg0 [] 0 in
  (p, applied, !visited)

(* Step 3: remove pipeline registers while timing still closes. *)
let recover_latency ?cache lib spec (p : Design_point.t) =
  let visited = ref [] in
  let try_cfg tech (cur : Design_point.t) cfg =
    let q = evaluate_via ?cache lib spec cfg in
    visited := q :: !visited;
    if q.Design_point.meets_mac then (q, [ tech ]) else (cur, [])
  in
  let cfg = p.Design_point.cfg in
  let p, a1 =
    if cfg.reg_after_tree && cfg.reg_sa_to_ofu then
      try_cfg Fuse_tree_sa p
        { cfg with reg_after_tree = false; retime_final_rca = false }
    else (p, [])
  in
  let cfg = p.Design_point.cfg in
  let p, a2 =
    if cfg.reg_sa_to_ofu && not cfg.ofu_retime then
      try_cfg Fuse_sa_ofu p { cfg with reg_sa_to_ofu = false }
    else (p, [])
  in
  (p, a1 @ a2, !visited)

(* Step 4: preference-oriented substitutions, kept while timing closes and
   the preferred objective improves. *)
let fine_tune ?cache lib spec (p : Design_point.t) =
  let visited = ref [] in
  let better (q : Design_point.t) (cur : Design_point.t) =
    match spec.Spec.preference with
    | Spec.Prefer_power -> Design_point.power_w q < Design_point.power_w cur
    | Spec.Prefer_area -> q.area_um2 < cur.area_um2
    | Spec.Prefer_performance -> q.crit_ps < cur.crit_ps
    | Spec.Balanced ->
        Design_point.power_w q *. q.area_um2
        < Design_point.power_w cur *. cur.area_um2
  in
  let try_sub name (cur : Design_point.t) cfg =
    let q = evaluate_via ?cache lib spec cfg in
    visited := q :: !visited;
    if q.Design_point.meets_mac && better q cur then
      (q, [ Ft_substitute name ])
    else (cur, [])
  in
  let cfg = p.Design_point.cfg in
  let candidates =
    match spec.Spec.preference with
    | Spec.Prefer_power | Spec.Balanced ->
        (* ft1: more compressors in the tree; ft2: low-leak mulmux *)
        [
          ( "compressor-heavier adder tree",
            {
              cfg with
              tree = Adder_tree.Csa { fa_ratio = 0.0; reorder = true };
            } );
          ("TG+NOR multiplier", { cfg with mul_kind = Cell.Tg_nor });
        ]
    | Spec.Prefer_area ->
        (* ft3: area-efficient multiplier/mux and cell *)
        [
          ("1T pass-gate multiplier", { cfg with mul_kind = Cell.Pass_1t });
          ("6T bit cell", { cfg with cell_kind = Cell.S6t });
        ]
        @
        (if cfg.mcr <= 2 then
           [
             ( "fused OAI22 multiplier+mux",
               { cfg with mul_kind = Cell.Oai22_fused } );
           ]
         else [])
    | Spec.Prefer_performance ->
        [
          ( "FA-heavy reordered adder tree",
            {
              cfg with
              tree = Adder_tree.Csa { fa_ratio = 1.0; reorder = true };
            } );
          ("8T bit cell (stronger read)", { cfg with cell_kind = Cell.S8t });
        ]
  in
  let p, applied =
    List.fold_left
      (fun (cur, acc) (name, cfg) ->
        let cur', a = try_sub name cur { cfg with tree_split = cur.Design_point.cfg.tree_split } in
        (cur', acc @ a))
      (p, []) candidates
  in
  (p, applied, !visited)

(** [search ?cache lib scl spec] runs the full Algorithm 1 pipeline.
    [cache] memoizes candidate evaluations, so overlapping walks (e.g.
    the four preference searches of a Pareto sweep) evaluate each design
    point once. *)
let search ?cache lib scl (spec : Spec.t) : result =
  let cfg0 = Spec.initial_config spec in
  let p1, a1, v1 = close_timing ?cache lib scl spec cfg0 in
  if not p1.Design_point.meets_mac then
    {
      spec;
      final = p1;
      applied = a1;
      visited = List.rev v1;
      timing_closed = false;
    }
  else
    let p2, a2, v2 = recover_latency ?cache lib spec p1 in
    let p3, a3, v3 = fine_tune ?cache lib spec p2 in
    {
      spec;
      final = p3;
      applied = a1 @ a2 @ a3;
      visited = List.rev (v3 @ v2 @ v1);
      timing_closed = true;
    }

(** Curated configuration lattice evaluated on top of the per-preference
    searches during a Pareto sweep: the paper's searcher emits "a series
    of DCIM designs at Pareto frontiers ... partly biased towards energy
    efficiency and partly towards area efficiency", which needs more
    diversity than the four greedy walks alone visit. *)
let exploration_lattice (spec : Spec.t) =
  let base = Spec.initial_config spec in
  let trees =
    [
      Adder_tree.Csa { fa_ratio = 0.0; reorder = true };
      Adder_tree.Csa { fa_ratio = 0.35; reorder = true };
      Adder_tree.Csa { fa_ratio = 1.0; reorder = true };
    ]
  in
  let sas = [ Shift_adder.Lsb_right; Shift_adder.Carry_save ] in
  let muls =
    Cell.Tg_nor :: Cell.Pass_1t
    :: (if spec.Spec.mcr <= 2 then [ Cell.Oai22_fused ] else [])
  in
  List.concat_map
    (fun tree ->
      List.concat_map
        (fun sa_kind ->
          List.map
            (fun mul_kind ->
              {
                base with
                Macro_rtl.tree;
                sa_kind;
                mul_kind;
                ofu_retime = true;
                ofu_fast_adder = sa_kind = Shift_adder.Carry_save;
              })
            muls)
        sas)
    trees

(** [pareto_sweep ?jobs ?cache lib scl spec] runs the searcher under every
    PPA preference, adds the exploration lattice, and returns the Pareto
    frontier over (power, area) of all timing-meeting points plus the
    full cloud — the paper's Fig. 8 series of design points.

    The four preference searches and the lattice evaluations are
    independent pure computations, so they fan out over a domain pool
    ([?jobs], default {!Pool.default_jobs}); a shared {!Eval_cache}
    deduplicates the walks' overlapping prefixes. Results are bit-for-bit
    identical for any job count: order is preserved by the pool and every
    evaluation is deterministic. Pass [?cache] to observe hit/miss
    statistics. *)
let pareto_sweep ?jobs ?cache lib scl (spec : Spec.t) =
  let cache = match cache with Some c -> c | None -> Eval_cache.create () in
  let prefs =
    [
      Spec.Prefer_power; Spec.Prefer_area; Spec.Prefer_performance;
      Spec.Balanced;
    ]
  in
  let searched =
    Pool.parallel_map ?jobs
      (fun preference ->
        let r = search ~cache lib scl { spec with preference } in
        r.visited)
      prefs
    |> List.concat
  in
  let explored =
    Pool.parallel_map ?jobs
      (Eval_cache.evaluate cache lib spec)
      (exploration_lattice spec)
  in
  let all = searched @ explored in
  let meeting = List.filter (fun p -> p.Design_point.meets_mac) all in
  (* three objectives: the paper's "top designs are energy-efficient with
     low power, the right designs are area-efficient with small area or
     high throughput" — throughput headroom is the (negated) critical
     path *)
  let objectives (p : Design_point.t) =
    [| Design_point.power_w p; p.area_um2; p.crit_ps |]
  in
  let front = Pareto.frontier ~objectives meeting in
  (front, meeting)
