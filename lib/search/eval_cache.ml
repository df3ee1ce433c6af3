(** Memoizing design-point cache.

    [Design_point.evaluate] is a pure function of the candidate
    configuration and the spec's operating point, and the searcher's four
    per-preference greedy walks plus the exploration lattice revisit the
    same early configurations over and over — Algorithm 1 step 1 starts
    every walk from the same initial config, and steps 2/3 retrace shared
    prefixes. Caching on a canonical key makes every revisit free and is
    safe to share across domains: the cache is a single-flight {!Memo},
    so a point is evaluated once however many walks race it, and every
    caller gets that one point. A cache's misses are therefore its
    distinct keys and its hits the rest, whatever the domain count.

    A point's power is computed on demand ({!Design_point.power_w}),
    single-flight under the point's own lock: walks on different domains
    that share a cached point run its power stream once between them.

    The cache must not outlive mutation of its values: the compiler's ECO
    loop resizes a design's instance drives in place, so cached points are
    only handed to consumers that treat the netlist as frozen (the sweep
    machinery). A point's pending power is the exception: it prices the
    drive snapshot taken at evaluation, not the live drives. Scope a
    cache per sweep.

    A cache may also draw its netlists from a {!netlists} table, which
    outlives it: the compiler keeps one table per compile, so an attempt
    retried at a tighter clock re-sizes a configuration an earlier
    attempt built instead of building it again. *)

(** A snapshot of one cache's counters, for values that outlive the
    cache (a pipeline attempt, a Fig. 8 result). *)
type stats = { hits : int; misses : int }

let m_hits = Metrics.counter "cache.eval.hits"
let m_misses = Metrics.counter "cache.eval.misses"

(* Canonical serialization of every [Macro_rtl.config] field: all that
   [Macro_rtl.build] reads besides the library. Floats print as %h so
   distinct configurations can never collide. *)
let config_key (cfg : Macro_rtl.config) : string =
  let tree =
    match cfg.Macro_rtl.tree with
    | Adder_tree.Rca_tree -> "rca"
    | Adder_tree.Csa { fa_ratio; reorder } ->
        Printf.sprintf "csa:%h:%b" fa_ratio reorder
  in
  Printf.sprintf
    "%dx%dx%d|i%s|w%s|cell%s|mul%s|tree%s|sa%s|split%d|rt%b|rca%b|rs%b|or%b|op%b|of%b|ap%d|ro%b|wc%b"
    cfg.Macro_rtl.rows cfg.Macro_rtl.cols cfg.Macro_rtl.mcr
    (Precision.name cfg.Macro_rtl.input_prec)
    (Precision.name cfg.Macro_rtl.weight_prec)
    (Cell.kind_to_string (Cell.Sram cfg.Macro_rtl.cell_kind))
    (Cell.kind_to_string (Cell.Mul cfg.Macro_rtl.mul_kind))
    tree
    (Shift_adder.kind_name cfg.Macro_rtl.sa_kind)
    cfg.Macro_rtl.tree_split cfg.Macro_rtl.reg_after_tree
    cfg.Macro_rtl.retime_final_rca cfg.Macro_rtl.reg_sa_to_ofu
    cfg.Macro_rtl.ofu_retime cfg.Macro_rtl.ofu_extra_pipe
    cfg.Macro_rtl.ofu_fast_adder cfg.Macro_rtl.align_pipeline
    cfg.Macro_rtl.reg_output cfg.Macro_rtl.with_controller

(* Everything [Design_point.evaluate] reads: the configuration plus the
   spec's operating point (MAC and weight-update frequency targets and
   VDD — the preference does not influence an evaluation, which is
   exactly why walks under different preferences can share entries). *)
let key (spec : Spec.t) (cfg : Macro_rtl.config) : string =
  Printf.sprintf "%s|f%h|wu%h|v%h" (config_key cfg) spec.Spec.mac_freq_hz
    spec.Spec.weight_update_freq_hz spec.Spec.vdd

(* ------------------------------------------------------------------ *)
(* Netlist table                                                       *)
(* ------------------------------------------------------------------ *)

let m_netlist_hits = Metrics.counter "cache.netlist.hits"
let m_netlist_misses = Metrics.counter "cache.netlist.misses"

(** A table of built netlists keyed by configuration alone:
    [Macro_rtl.build] is a pure function of the library and the config,
    so one table serves every operating point of one library. It keeps
    each netlist at its as-built drives and hands out copies whose drive
    column is fresh, so that neither sizing nor the backend ECO, which
    resize a point's netlist in place, can reach the table or another
    point. Everything else (instance kinds, pins, connectivity) is shared
    with the table. Builds of different configurations run in parallel. *)
type netlists = (string, Macro_rtl.t) Memo.t

let netlists () : netlists =
  Memo.create ~hits:m_netlist_hits ~misses:m_netlist_misses ()

(** [netlist n lib cfg] — [cfg]'s netlist with a drive column of its own,
    at the as-built drives; built on the table's first request for
    [cfg]. [lib] must be the library of every earlier request. *)
let netlist (n : netlists) lib (cfg : Macro_rtl.config) : Macro_rtl.t =
  let build () = Macro_rtl.build lib cfg in
  let m = Memo.find_or_add n (config_key cfg) build in
  let d = m.Macro_rtl.design in
  { m with Macro_rtl.design = { d with Ir.drives = Bytes.copy d.Ir.drives } }

(** The table's counters so far. *)
let netlist_stats (n : netlists) =
  { hits = Memo.hits n; misses = Memo.misses n }

(* ------------------------------------------------------------------ *)
(* Design-point cache                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  points : (string, Design_point.t) Memo.t;
  netlists : netlists option;  (** where misses take their netlists *)
}

(** [create ?netlists ()] — an empty cache. With [netlists], a miss takes
    its netlist from that table instead of building it. *)
let create ?netlists () =
  { points = Memo.create ~hits:m_hits ~misses:m_misses (); netlists }

(** [evaluate t lib spec cfg] — {!Design_point.evaluate} through the
    cache. A hit returns the stored point itself (physical equality), so
    overlapping walks share one evaluation. *)
let evaluate (t : t) lib (spec : Spec.t) (cfg : Macro_rtl.config) :
    Design_point.t =
  Memo.find_or_add t.points (key spec cfg) (fun () ->
      let macro = Option.map (fun n -> netlist n lib cfg) t.netlists in
      Design_point.evaluate ?macro lib spec cfg)

let stats (t : t) = { hits = Memo.hits t.points; misses = Memo.misses t.points }
let size (t : t) = Memo.length t.points

let describe (s : stats) =
  let total = s.hits + s.misses in
  Printf.sprintf "eval cache: %d hits / %d misses (%.0f %% hit rate)" s.hits
    s.misses
    (if total = 0 then 0.0
     else 100.0 *. float_of_int s.hits /. float_of_int total)
