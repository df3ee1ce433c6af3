(** Per-stage instrumentation sink for the compilation pipeline.

    Every executed stage appends one {!row}: wall-clock, cells touched,
    critical path in/out, {!Eval_cache} hits/misses, ECO iterations and
    the retry boost in effect. A stage builds its row with {!Stage.meta}
    and {!Stage.execute} fills in the name, status and wall clock; the
    compile-cache lookup of {!Pipeline.run_cached} records one the same
    way. [syndcim compile --trace] renders the rows
    as a table; {!fingerprint} renders the same table without the
    wall-clock column, so two runs of a deterministic flow produce
    byte-identical fingerprints regardless of machine load or job count. *)

type row = {
  stage : string;
  ok : bool;
  wall_ms : float;  (** the only non-deterministic column *)
  cells : int option;  (** instances built / touched by the stage *)
  crit_in_ps : float option;
  crit_out_ps : float option;
  cache_hits : int option;
  cache_misses : int option;
  eco_iters : int option;
  boost : float option;  (** retry boost the stage ran under *)
  note : string;
}

type t = { mutable rev_rows : row list }

let create () = { rev_rows = [] }
let add (t : t) (r : row) = t.rev_rows <- r :: t.rev_rows
let rows (t : t) = List.rev t.rev_rows
let length (t : t) = List.length t.rev_rows

let opt_int = function None -> "-" | Some n -> string_of_int n
let opt_ps = function None -> "-" | Some f -> Printf.sprintf "%.1f" f

let cache_cell r =
  match (r.cache_hits, r.cache_misses) with
  | None, None -> "-"
  | h, m -> Printf.sprintf "%s/%s" (opt_int h) (opt_int m)

let boost_cell = function
  | None -> "-"
  | Some b -> Printf.sprintf "x%.2f" b

let row_cells ~with_wall (r : row) =
  [ r.stage; (if r.ok then "ok" else "FAIL") ]
  @ (if with_wall then [ Printf.sprintf "%.1f" r.wall_ms ] else [])
  @ [
      opt_int r.cells;
      opt_ps r.crit_in_ps;
      opt_ps r.crit_out_ps;
      cache_cell r;
      opt_int r.eco_iters;
      boost_cell r.boost;
      r.note;
    ]

let header ~with_wall =
  [ "stage"; "status" ]
  @ (if with_wall then [ "wall (ms)" ] else [])
  @ [
      "cells"; "crit in (ps)"; "crit out (ps)"; "cache h/m"; "eco"; "boost";
      "note";
    ]

(** [render t] — the full instrumentation table, wall-clock included. *)
let render (t : t) =
  Table.render
    (Table.make ~header:(header ~with_wall:true)
       (List.map (row_cells ~with_wall:true) (rows t)))
  ^ "\n"

(** [fingerprint t] — the deterministic view: the same table without the
    wall-clock column. Equal runs produce equal fingerprints. *)
let fingerprint (t : t) =
  Table.render
    (Table.make ~header:(header ~with_wall:false)
       (List.map (row_cells ~with_wall:false) (rows t)))
  ^ "\n"
