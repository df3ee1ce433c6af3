(** Golden PPA regression snapshots.

    A snapshot is the rendered PPA fingerprint of a fixed set of
    canonical specifications, committed under [test/snapshots/]. Every
    verification run recomputes the fingerprints and diffs them against
    the committed text: a refactor that silently shifts timing, area or
    power — without breaking any functional test — fails the diff with a
    readable before/after report. [syndcim verify --update-snapshots]
    re-records after an intentional change.

    Fingerprints are rendered with fixed precision, so they are stable
    across job counts (evaluation is pure and the pool preserves order)
    and machines (the whole flow is deterministic float arithmetic). *)

type entry = {
  name : string;
  crit_ps : float;  (** post-sizing nominal-voltage critical path *)
  area_um2 : float;
  power_mw : float;
  tops : float;
  insts : int;  (** netlist instance count: structure fingerprint *)
}

(** The canonical spec set: one point per regime the compiler serves —
    plain INT8, narrow INT4, FP-aligned input, and a multi-copy array. *)
let canonical_specs : (string * Spec.t) list =
  let mk ?(mcr = 1) ?(iprec = Precision.int8) ?(wprec = Precision.int8)
      ~rows ~cols ~mhz name =
    ( name,
      {
        Spec.rows;
        cols;
        mcr;
        input_prec = iprec;
        weight_prec = wprec;
        mac_freq_hz = mhz *. 1e6;
        weight_update_freq_hz = mhz *. 1e6;
        vdd = 0.9;
        preference = Spec.Balanced;
      } )
  in
  [
    mk ~rows:16 ~cols:16 ~mhz:600.0 "int8_16x16_600MHz";
    mk ~iprec:Precision.int4 ~wprec:Precision.int4 ~rows:16 ~cols:16
      ~mhz:800.0 "int4_16x16_800MHz";
    mk ~iprec:Precision.fp8 ~rows:8 ~cols:8 ~mhz:500.0 "fp8_8x8_500MHz";
    mk ~mcr:2 ~rows:32 ~cols:32 ~mhz:800.0 "int8_32x32_mcr2_800MHz";
  ]

(** [fingerprint ctx specs] — evaluate each spec's initial configuration
    over the context's library and domain pool; order follows the input
    list for any job count. *)
let fingerprint (ctx : Ctx.t) (specs : (string * Spec.t) list) : entry list =
  let lib = Ctx.lib ctx in
  Pool.parallel_map ?jobs:(Ctx.jobs ctx)
    (fun (name, s) ->
      let p = Design_point.evaluate lib s (Spec.initial_config s) in
      {
        name;
        crit_ps = p.Design_point.crit_ps;
        area_um2 = p.Design_point.area_um2;
        power_mw = Design_point.power_w p *. 1e3;
        tops = p.Design_point.tops;
        insts = Ir.n_insts p.Design_point.macro.Macro_rtl.design;
      })
    specs

let header =
  "# SynDCIM golden PPA fingerprints — regenerate with `syndcim verify \
   --update-snapshots`\n\
   # spec | crit_ps | area_um2 | power_mw | tops | insts"

let render_entry (e : entry) =
  Printf.sprintf "%-24s | %10.1f | %12.1f | %10.4f | %8.4f | %7d" e.name
    e.crit_ps e.area_um2 e.power_mw e.tops e.insts

(** [render entries] — the canonical snapshot text. *)
let render (entries : entry list) : string =
  String.concat "\n" (header :: List.map render_entry entries) ^ "\n"

(* data lines only: comments and blanks don't participate in the diff *)
let data_lines text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(** [diff ~expected ~actual] — [None] when the fingerprints agree;
    otherwise a readable per-spec report of what moved. *)
let diff ~expected ~actual : string option =
  let e = data_lines expected and a = data_lines actual in
  let rec pair acc e a =
    match (e, a) with
    | [], [] -> List.rev acc
    | x :: e, [] -> pair ((Some x, None) :: acc) e []
    | [], y :: a -> pair ((None, Some y) :: acc) [] a
    | x :: e, y :: a -> pair ((Some x, Some y) :: acc) e a
  in
  let bad =
    List.filter (fun (x, y) -> x <> y) (pair [] e a)
  in
  if bad = [] then None
  else
    let lines =
      List.concat_map
        (fun (x, y) ->
          let pre tag = function
            | Some l -> [ Printf.sprintf " %s %s" tag l ]
            | None -> []
          in
          pre "- recorded:" x @ pre "+ measured:" y)
        bad
    in
    Some
      (String.concat "\n"
         (Printf.sprintf
            "PPA snapshot mismatch: %d of %d fingerprints shifted"
            (List.length bad)
            (max (List.length e) (List.length a))
         :: lines))

let save path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(** [check ~dir ctx] — compare current fingerprints against the
    snapshot file under [dir]; [Ok checked] or [Error report]. A missing
    snapshot file is an error naming the update command. *)
let file = "ppa.snap"

let check ~dir (ctx : Ctx.t) : (int, string) Stdlib.result =
  let path = Filename.concat dir file in
  let actual = render (fingerprint ctx canonical_specs) in
  if not (Sys.file_exists path) then
    Error
      (Printf.sprintf
         "no PPA snapshot at %s — record one with `syndcim verify \
          --update-snapshots`"
         path)
  else
    match diff ~expected:(load path) ~actual with
    | None -> Ok (List.length canonical_specs)
    | Some report -> Error report

(** [check_diag ~dir ctx] — {!check} with the mismatch carried as a
    structured diagnostic (stage ["snapshot"], per-spec payload), so the
    CLI reports it through the same channel as pipeline diagnostics. *)
let check_diag ~dir (ctx : Ctx.t) : (int, Diag.t) Stdlib.result =
  match check ~dir ctx with
  | Ok n -> Ok n
  | Error report ->
      Error
        (Diag.error ~stage:"snapshot"
           ~payload:[ ("dir", dir); ("file", file) ]
           report)

(** [update ~dir ctx] — re-record the snapshot; returns the path. *)
let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let update ~dir (ctx : Ctx.t) : string =
  mkdirs dir;
  let path = Filename.concat dir file in
  save path (render (fingerprint ctx canonical_specs));
  path
