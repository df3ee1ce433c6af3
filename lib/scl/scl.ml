(** The Subcircuit Library (SCL, paper §III-B): enumerated variants of the
    seven DCIM subcircuits with memoized PPA look-up tables.

    The searcher consults this library to (a) enumerate the search space of
    selectable subcircuits for a given specification and (b) rank variants
    by delay/power/area when applying its techniques ("the searcher checks
    if faster adders are available in the SCL"). Entries are characterized
    on demand through {!Standalone} and cached, which is the in-memory
    equivalent of the paper's pre-characterized LUT files. The memo is a
    single-flight {!Memo} that parallel searcher domains share: a cold
    entry is characterized once, so [cache.scl.*] are deterministic. *)

let m_hits = Metrics.counter "cache.scl.hits"
let m_misses = Metrics.counter "cache.scl.misses"

type t = { lib : Library.t; memo : (string, Ppa.t) Memo.t }

let create lib =
  { lib; memo = Memo.create ~hits:m_hits ~misses:m_misses () }

(* Memo counters, so a shared SCL can show it is actually being reused
   (e.g. the second compile through one {!Ctx} reports hits > 0). *)
let hits t = Memo.hits t.memo
let misses t = Memo.misses t.memo

(** [entries t] — the number of characterized entries currently cached. *)
let entries t = Memo.length t.memo

let describe t =
  let n = entries t in
  Printf.sprintf "%d hit(s) / %d miss(es), %d characterized entr%s" (hits t)
    (misses t) n
    (if n = 1 then "y" else "ies")

let memo t key f = Memo.find_or_add t.memo key f

(* The LUT persistence ({!Persist}) reads the entries and stores loaded
   rows without characterizing them. *)
let bindings t = Memo.bindings t.memo
let replace t key v = Memo.replace t.memo key v

(** Adder-tree topologies offered by the library, ordered from most
    power/area-efficient to fastest (the order tt1 walks). *)
let tree_menu =
  [
    Adder_tree.Csa { fa_ratio = 0.0; reorder = false };
    Adder_tree.Csa { fa_ratio = 0.0; reorder = true };
    Adder_tree.Csa { fa_ratio = 0.35; reorder = true };
    Adder_tree.Csa { fa_ratio = 0.7; reorder = true };
    Adder_tree.Csa { fa_ratio = 1.0; reorder = true };
  ]

(** The conventional baseline tree, kept out of {!tree_menu} so the
    searcher never picks it but comparisons can. *)
let tree_baseline = Adder_tree.Rca_tree

let mul_menu = [ Cell.Tg_nor; Cell.Pass_1t; Cell.Oai22_fused ]
let cell_menu = [ Cell.S6t; Cell.S8t; Cell.S12t ]

let adder_tree t ~topology ~rows =
  let key =
    Printf.sprintf "tree/%s/h%d" (Adder_tree.topology_name topology) rows
  in
  memo t key (fun () -> Standalone.adder_tree t.lib ~topology ~rows)

let mulmux t ~variant ~mcr =
  let key =
    Printf.sprintf "mulmux/%s/m%d"
      (Cell.kind_to_string (Cell.Mul variant))
      mcr
  in
  memo t key (fun () -> Standalone.mulmux t.lib ~variant ~mcr)

let memory_cell t ~kind =
  let key = Printf.sprintf "cell/%s" (Cell.kind_to_string (Cell.Sram kind)) in
  memo t key (fun () -> Standalone.memory_cell t.lib ~kind)

let fp_align t ~fmt ~pipeline ~rows =
  let key =
    Printf.sprintf "align/%s/p%d/h%d" fmt.Fpfmt.name pipeline rows
  in
  memo t key (fun () -> Standalone.fp_align t.lib ~fmt ~pipeline ~rows)

let sa_menu =
  [ Shift_adder.Lsb_right; Shift_adder.Ripple; Shift_adder.Carry_save ]

let shift_adder t ~kind ~rows ~serial_bits =
  let key =
    Printf.sprintf "sa/%s/h%d/b%d" (Shift_adder.kind_name kind) rows
      serial_bits
  in
  memo t key (fun () -> Standalone.shift_adder t.lib ~kind ~rows ~serial_bits)

let ofu t ~wb ~w_sa ~result_width ~pipe ~fast =
  let key =
    Printf.sprintf "ofu/w%d/s%d/r%d/p%b/f%b" wb w_sa result_width pipe fast
  in
  memo t key (fun () ->
      Standalone.ofu t.lib ~wb ~w_sa ~result_width ~pipe ~fast)

let wl_driver t ~cols =
  let key = Printf.sprintf "wl/c%d" cols in
  memo t key (fun () -> Standalone.wl_driver t.lib ~cols)

(** [faster_tree t ~rows ~than] — the cheapest menu topology strictly
    faster (by characterized delay) than topology [than] at this height;
    [None] when [than] is already the fastest available. This is the tt1
    query of Algorithm 1. *)
let faster_tree t ~rows ~than =
  let d topo = (adder_tree t ~topology:topo ~rows).Ppa.delay_ps in
  let current = d than in
  List.find_opt (fun topo -> d topo < current -. 1.0) tree_menu

(** [estimate_macro t cfg] — an analytic pre-RTL PPA composition of a full
    macro from LUT entries, used by the searcher to order candidates
    before it commits to building netlists. Delay is the max pipeline
    stage; area/energy/leakage sum over instance counts. *)
let estimate_macro t (cfg : Macro_rtl.config) =
  let db = Precision.datapath_bits cfg.input_prec in
  let wb = Precision.datapath_bits cfg.weight_prec in
  let words = cfg.cols / wb in
  let w_sa = Shift_adder.width ~rows:cfg.rows ~serial_bits:db in
  let rw =
    Golden.result_width ~rows:cfg.rows ~input_bits:db ~weight_bits:wb
  in
  let tree_rows = cfg.rows / cfg.tree_split in
  let tree = adder_tree t ~topology:cfg.tree ~rows:tree_rows in
  let sa = shift_adder t ~kind:cfg.sa_kind ~rows:cfg.rows ~serial_bits:db in
  let ofu_e =
    ofu t ~wb ~w_sa ~result_width:rw ~pipe:cfg.ofu_extra_pipe
      ~fast:cfg.ofu_fast_adder
  in
  let mm = mulmux t ~variant:cfg.mul_kind ~mcr:cfg.mcr in
  let cell = memory_cell t ~kind:cfg.cell_kind in
  let wl = wl_driver t ~cols:cfg.cols in
  let align =
    match cfg.input_prec with
    | Precision.Int _ -> Ppa.zero
    | Precision.Fp fmt ->
        (* characterize at a capped height, scale the additive metrics *)
        let cap = min cfg.rows 64 in
        let unit = fp_align t ~fmt ~pipeline:cfg.align_pipeline ~rows:cap in
        let f = float_of_int cfg.rows /. float_of_int cap in
        {
          unit with
          Ppa.area_um2 = unit.Ppa.area_um2 *. f;
          energy_fj = unit.Ppa.energy_fj *. f;
          leakage_nw = unit.Ppa.leakage_nw *. f;
        }
  in
  let open Ppa in
  scale (cfg.rows * cfg.cols * cfg.mcr) cell
  + scale (cfg.rows * cfg.cols) mm
  + scale (cfg.cols * cfg.tree_split) tree
  + scale cfg.cols sa + scale words ofu_e + scale cfg.rows wl + align
