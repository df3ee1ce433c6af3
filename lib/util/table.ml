(** Plain-text table rendering for experiment reports.

    The benchmark harness prints every reproduced paper table and figure as
    an aligned ASCII table on stdout; this module does the alignment. *)

type t = { header : string list; rows : string list list }

let make ~header rows = { header; rows }

let widths t =
  let all = t.header :: t.rows in
  let cols = List.length t.header in
  let w = Array.make cols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < cols then w.(i) <- max w.(i) (String.length cell))
      row
  in
  List.iter measure all;
  w

let render_row w row =
  let cells =
    List.mapi
      (fun i cell ->
        let pad = w.(i) - String.length cell in
        cell ^ String.make (max 0 pad) ' ')
      row
  in
  "| " ^ String.concat " | " cells ^ " |"

let render t =
  let w = widths t in
  let sep =
    "|"
    ^ String.concat "|"
        (Array.to_list (Array.map (fun n -> String.make (n + 2) '-') w))
    ^ "|"
  in
  let body = List.map (render_row w) t.rows in
  String.concat "\n" (render_row w t.header :: sep :: body)

(** [print t] renders [t] followed by a newline on stdout. *)
let print t =
  print_endline (render t)

(** Format a float with [digits] decimals. *)
let f ?(digits = 2) x = Printf.sprintf "%.*f" digits x
