(** DEF-style export of a placement: die area, placed components, and the
    net list — the hand-off format between placement and routing tools. *)

let to_string lib (p : Floorplan.t) =
  let d = p.design in
  let b = Buffer.create (Ir.n_insts d * 48) in
  let dbu = 1000.0 in
  Buffer.add_string b "VERSION 5.8 ;\nDESIGN dcim_macro ;\nUNITS DISTANCE MICRONS 1000 ;\n";
  Buffer.add_string b
    (Printf.sprintf "DIEAREA ( 0 0 ) ( %.0f %.0f ) ;\n" (p.die_w *. dbu)
       (p.die_h *. dbu));
  Buffer.add_string b
    (Printf.sprintf "COMPONENTS %d ;\n" (Ir.n_insts d));
  for i = 0 to Ir.n_insts d - 1 do
    let w = Floorplan.inst_width lib d i in
    Buffer.add_string b
      (Printf.sprintf "  - u%d %s_%s + PLACED ( %.0f %.0f ) N ;\n" i
         (Cell.kind_to_string (Ir.kind d i))
         (Cell.drive_to_string (Ir.drive d i))
         ((p.x.(i) -. (w /. 2.0)) *. dbu)
         ((p.y.(i) -. (p.row_height /. 2.0)) *. dbu))
  done;
  Buffer.add_string b "END COMPONENTS\n";
  (* nets, driver first *)
  let live =
    Array.to_list (Array.init d.n_nets Fun.id)
    |> List.filter (fun n -> n > 1 && Ir.fanout_count d n > 0)
  in
  Buffer.add_string b (Printf.sprintf "NETS %d ;\n" (List.length live));
  List.iter
    (fun n ->
      Buffer.add_string b (Printf.sprintf "  - n%d" n);
      (match Ir.driver d n with
      | Some (i, o) -> Buffer.add_string b (Printf.sprintf " ( u%d O%d )" i o)
      | None -> ());
      (* an instance reading the net on several pins appears once per pin,
         consecutively: list its pins at its first entry, highest first *)
      for k = d.fanout_start.(n) to d.fanout_start.(n + 1) - 1 do
        let i = d.fanout.(k) in
        if k = d.fanout_start.(n) || d.fanout.(k - 1) <> i then begin
          for pin = Ir.n_ins d i - 1 downto 0 do
            if Ir.in_pin d i pin = n then
              Buffer.add_string b (Printf.sprintf " ( u%d I%d )" i pin)
          done
        end
      done;
      Buffer.add_string b " ;\n")
    live;
  Buffer.add_string b "END NETS\nEND DESIGN\n";
  Buffer.contents b
