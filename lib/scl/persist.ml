(** Subcircuit-library persistence: the characterized PPA LUT as a CSV
    file, so a long characterization run (the paper ships its LUTs with
    the compiler) can be reused across compiler invocations.

    Format: one entry per line, [key,delay_ps,area_um2,energy_fj,
    leakage_nw]. Keys are the same strings {!Scl} memoizes under, so a
    loaded table short-circuits characterization exactly. *)

let save (scl : Scl.t) path =
  let oc = open_out path in
  output_string oc "key,delay_ps,area_um2,energy_fj,leakage_nw\n";
  let rows =
    Mutex.protect scl.Scl.lock (fun () ->
        Hashtbl.fold (fun k (v : Ppa.t) acc -> (k, v) :: acc) scl.Scl.table [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (k, (v : Ppa.t)) ->
      Printf.fprintf oc "%s,%.6g,%.6g,%.6g,%.6g\n" k v.Ppa.delay_ps
        v.Ppa.area_um2 v.Ppa.energy_fj v.Ppa.leakage_nw)
    rows;
  close_out oc

exception Bad_format of string

(** [load scl path] merges entries from [path] into [scl]'s table,
    overwriting duplicates. Raises {!Bad_format} on malformed lines. *)
let load (scl : Scl.t) path =
  let ic = open_in path in
  let count = ref 0 in
  (try
     ignore (input_line ic);
     (* header *)
     let rec go () =
       let line = input_line ic in
       if String.trim line <> "" then begin
         match String.split_on_char ',' line with
         | [ key; d; a; e; l ] -> (
             match
               ( float_of_string_opt d,
                 float_of_string_opt a,
                 float_of_string_opt e,
                 float_of_string_opt l )
             with
             | Some delay_ps, Some area_um2, Some energy_fj, Some leakage_nw
               ->
                 Mutex.protect scl.Scl.lock (fun () ->
                     Hashtbl.replace scl.Scl.table key
                       { Ppa.delay_ps; area_um2; energy_fj; leakage_nw });
                 incr count
             | _ -> raise (Bad_format line))
         | _ -> raise (Bad_format line)
       end;
       go ()
     in
     go ()
   with End_of_file -> ());
  close_in ic;
  !count
