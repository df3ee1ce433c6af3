(** Structural Verilog export of a frozen netlist.

    The emitted module instantiates the library cells by their catalogue
    names (INV_X1, FA_X2, SRAM6T_X1, ...), matching the LEF/LIB views the
    {!Liberty} writer produces, so the output is what a hand-off to a
    commercial APR tool would look like. Sequential cells get the implicit
    [clk] port; SRAM bits are emitted as instances whose write port is the
    out-of-band BL interface. *)

let net_name n =
  if n = Ir.const0 then "1'b0"
  else if n = Ir.const1 then "1'b1"
  else Printf.sprintf "n%d" n

let bus_decl b (name, nets) ~dir =
  Buffer.add_string b
    (Printf.sprintf "  %s [%d:0] %s;\n" dir (Array.length nets - 1) name)

let emit_inst b (d : Ir.design) idx =
  let kind = Ir.kind d idx in
  let cell =
    Printf.sprintf "%s_%s" (Cell.kind_to_string kind)
      (Cell.drive_to_string (Ir.drive d idx))
  in
  let pins = Buffer.create 64 in
  for i = 0 to Ir.n_ins d idx - 1 do
    Buffer.add_string pins
      (Printf.sprintf ".I%d(%s), " i (net_name (Ir.in_pin d idx i)))
  done;
  if Cell.is_sequential kind then Buffer.add_string pins ".CK(clk), ";
  let n_outs = Ir.n_outs d idx in
  for o = 0 to n_outs - 1 do
    Buffer.add_string pins
      (Printf.sprintf ".O%d(%s)%s" o
         (net_name (Ir.out_pin d idx o))
         (if o = n_outs - 1 then "" else ", "))
  done;
  Buffer.add_string b
    (Printf.sprintf "  %s u%d (%s);\n" cell idx (Buffer.contents pins))

(** [to_string d] renders the whole design as one structural module. *)
let to_string (d : Ir.design) =
  let b = Buffer.create (Ir.n_insts d * 64) in
  let src = d.src in
  let inputs = Ir.inputs src and outputs = Ir.outputs src in
  let ports = ("clk" :: List.map fst inputs) @ List.map fst outputs in
  Buffer.add_string b
    (Printf.sprintf "module %s (%s);\n" src.name (String.concat ", " ports));
  Buffer.add_string b "  input clk;\n";
  List.iter (fun p -> bus_decl b p ~dir:"input") inputs;
  List.iter (fun p -> bus_decl b p ~dir:"output") outputs;
  (* internal wires *)
  for n = 2 to d.n_nets - 1 do
    Buffer.add_string b (Printf.sprintf "  wire n%d;\n" n)
  done;
  (* port aliases *)
  let alias (name, nets) ~input =
    Array.iteri
      (fun i net ->
        if input then
          Buffer.add_string b
            (Printf.sprintf "  assign %s = %s[%d];\n" (net_name net) name i)
        else
          Buffer.add_string b
            (Printf.sprintf "  assign %s[%d] = %s;\n" name i (net_name net)))
      nets
  in
  List.iter (alias ~input:true) inputs;
  List.iter (alias ~input:false) outputs;
  for i = 0 to Ir.n_insts d - 1 do
    emit_inst b d i
  done;
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

(** [stats_header d] — a summary comment block for the top of the file. *)
let stats_header (d : Ir.design) =
  Printf.sprintf
    "// generated by SynDCIM\n// instances: %d, nets: %d, registers: %d, \
     storage bits: %d\n"
    (Ir.n_insts d) d.n_nets (Array.length d.seq) (Array.length d.storage)
