(** Netlist inventory: cell counts, area, leakage, per-subcircuit splits. *)

type t = {
  n_insts : int;
  n_nets : int;
  by_kind : (Cell.kind * int) list;
  area_um2 : float;
  leakage_nw : float;
}

let of_design (d : Ir.design) (lib : Library.t) =
  let counts = Array.make Cell.n_kinds 0
  and first = Array.make Cell.n_kinds 0 in
  let area = ref 0.0 and leak = ref 0.0 in
  for i = 0 to Ir.n_insts d - 1 do
    let k = Char.code (Bytes.get d.kinds i) in
    if counts.(k) = 0 then first.(k) <- i;
    counts.(k) <- counts.(k) + 1;
    let p = Ir.params d lib i in
    area := !area +. p.area_um2;
    leak := !leak +. p.leakage_nw
  done;
  (* [by_kind] lists kinds by descending count, ties in the order a
     per-instance [Hashtbl] count folds them. That order depends only on
     which kind was inserted first, so replaying the kinds into the same
     table in first-occurrence order reproduces it. *)
  let tbl = Hashtbl.create 32 in
  List.filter (fun k -> counts.(Cell.kind_index k) > 0) Cell.all_kinds
  |> List.sort (fun a b ->
         compare first.(Cell.kind_index a) first.(Cell.kind_index b))
  |> List.iter (fun k -> Hashtbl.replace tbl k counts.(Cell.kind_index k));
  let by_kind =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    n_insts = Ir.n_insts d;
    n_nets = d.n_nets;
    by_kind;
    area_um2 = !area;
    leakage_nw = !leak;
  }

(** [area_by_subcircuit d lib] splits standard-cell area across the
    subcircuit tags the builders attached — the per-subcircuit area
    breakdown the paper's SCL tracks. *)
let area_by_subcircuit (d : Ir.design) (lib : Library.t) =
  let tbl = Hashtbl.create 16 in
  for i = 0 to Ir.n_insts d - 1 do
    let key = Ir.label d i in
    let p = Ir.params d lib i in
    let cur = try Hashtbl.find tbl key with Not_found -> 0.0 in
    Hashtbl.replace tbl key (cur +. p.area_um2)
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
