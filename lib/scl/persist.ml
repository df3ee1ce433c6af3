(** Subcircuit-library persistence: the characterized PPA LUT as a CSV
    file, so a long characterization run (the paper ships its LUTs with
    the compiler) can be reused across compiler invocations.

    Format: one entry per line, [key,delay_ps,area_um2,energy_fj,
    leakage_nw]. Keys are the same strings {!Scl} memoizes under, so a
    loaded table short-circuits characterization exactly. *)

(** [save scl path] writes the table atomically ({!Fsutil.write_atomic}):
    a writer killed mid-save leaves the previous file, never a torn one.
    [%.17g] round-trips every float, so a reloaded entry is bit for bit
    the characterized one. *)
let save (scl : Scl.t) path =
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) (Scl.bindings scl) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "key,delay_ps,area_um2,energy_fj,leakage_nw\n";
  List.iter
    (fun (k, (v : Ppa.t)) ->
      Printf.bprintf b "%s,%.17g,%.17g,%.17g,%.17g\n" k v.Ppa.delay_ps
        v.Ppa.area_um2 v.Ppa.energy_fj v.Ppa.leakage_nw)
    rows;
  Fsutil.write_atomic path (Buffer.contents b)

exception Bad_format of string

(* One data line as a [(key, entry)] row. *)
let parse_row line =
  match String.split_on_char ',' line with
  | [ key; d; a; e; l ] -> (
      match List.map float_of_string_opt [ d; a; e; l ] with
      | [ Some delay_ps; Some area_um2; Some energy_fj; Some leakage_nw ] ->
          (key, { Ppa.delay_ps; area_um2; energy_fj; leakage_nw })
      | _ -> raise (Bad_format line))
  | _ -> raise (Bad_format line)

(** [load scl path] merges entries from [path] into [scl]'s table,
    overwriting duplicates, and returns their count. The whole file is
    parsed first: on a malformed line it raises {!Bad_format} and merges
    nothing. The file is closed on every path. *)
let load (scl : Scl.t) path =
  let rows =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n' |> List.tl (* header *)
    |> List.filter (fun line -> String.trim line <> "")
    |> List.map parse_row
  in
  List.iter (fun (k, v) -> Scl.replace scl k v) rows;
  List.length rows
