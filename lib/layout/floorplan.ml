(** Placement: the SDP (structured data path) flow of paper §III-D, and a
    scattered baseline for the ablation.

    SDP placement mirrors the paper's Innovus SDP script: SRAM bit cells
    are tiled on an exact (row, column, copy) grid, each column's
    multiplier/mux and adder/S&A cells fill a strip immediately next to
    that column ("we fill the gaps between SRAM columns with adder
    cells"), and the peripheral logic (WL drivers and FP aligner on the
    left, OFU/output/BL drivers in a band below) is placed around the
    array. The scattered baseline shuffles every cell row-major across the
    same die, which is what an unconstrained APR run degenerates to.

    Column association for datapath cells uses creation order: the macro
    composer instantiates tree and S&A cells strictly column-major and
    multiplier elements row-major with a constant instance count per
    element, so chunking each tag group by instance id recovers exact
    column membership. *)

type style = Sdp | Scattered

let style_name = function Sdp -> "sdp" | Scattered -> "scattered"

type t = {
  design : Ir.design;
  style : style;
  x : float array;  (** per instance, cell center, um *)
  y : float array;
  die_w : float;
  die_h : float;
  row_height : float;
}

let row_height = 1.4

(** [inst_width lib d i] is instance [i]'s cell width at its current
    drive. *)
let[@inline] inst_width lib (d : Ir.design) i =
  (Ir.params d lib i).Library.area_um2 /. row_height

(* Placement regions. *)
let r_bitcell = 0 (* weight bit cells, on the (row, column, copy) grid *)
let r_mulmux = 1 (* multiplier/mux elements, row-major creation order *)
let r_strip = 2 (* trees + S&A, column-major creation order *)
let r_left = 3 (* WL drivers, FP aligner *)
let r_word = 4 (* OFU + its pipeline/output regs, word-major *)
let r_misc = 5 (* BL drivers and everything else *)
let n_regions = 6

let region_of_tag = function
  | Ir.Weight_bit _ -> r_bitcell
  | Ir.Subcircuit "mulmux" -> r_mulmux
  | Ir.Subcircuit ("adder_tree" | "shift_adder")
  | Ir.Pipeline_reg ("tree_split" | "tree_out" | "tree_cs_a" | "tree_cs_b") ->
      r_strip
  | Ir.Subcircuit ("wl_driver" | "fp_align") -> r_left
  | Ir.Subcircuit "ofu" | Ir.Pipeline_reg ("sa_ofu" | "ofu_pipe" | "macro_out")
    ->
      r_word
  | Ir.Subcircuit _ | Ir.Pipeline_reg _ | Ir.Plain -> r_misc

(* Instance ids partitioned into the placement regions by a counting
   sort: region [r] is [ids.(start.(r)) .. ids.(start.(r + 1) - 1)], in
   ascending id order. *)
type regions = { ids : int array; start : int array }

let classify (d : Ir.design) : regions =
  let n = Ir.n_insts d in
  (* one region per interned tag; packed weight bits carry tag key -1 *)
  let by_key = Array.map region_of_tag d.tag_table in
  let region_of i =
    let key = Ir.tag_key d i in
    if key < 0 then r_bitcell else by_key.(key)
  in
  let start = Array.make (n_regions + 1) 0 in
  for i = 0 to n - 1 do
    let r = region_of i in
    start.(r + 1) <- start.(r + 1) + 1
  done;
  for r = 0 to n_regions - 1 do
    start.(r + 1) <- start.(r + 1) + start.(r)
  done;
  let ids = Array.make n 0 and cursor = Array.sub start 0 n_regions in
  for i = 0 to n - 1 do
    let r = region_of i in
    ids.(cursor.(r)) <- i;
    cursor.(r) <- cursor.(r) + 1
  done;
  { ids; start }

(* Fill a rectangular region row-major with [ids.(lo) .. ids.(hi - 1)];
   returns the actually used height. *)
let fill_region lib (d : Ir.design) ~x ~y ~x0 ~y0 ~width ids lo hi =
  let cx = ref x0 and cy = ref y0 in
  for k = lo to hi - 1 do
    let i = ids.(k) in
    let w = inst_width lib d i in
    if !cx +. w > x0 +. width +. 1e-6 then begin
      cx := x0;
      cy := !cy +. row_height
    end;
    x.(i) <- !cx +. (w /. 2.0);
    y.(i) <- !cy +. (row_height /. 2.0);
    cx := !cx +. w
  done;
  !cy +. row_height -. y0

(* Total cell area of [ids.(lo) .. ids.(hi - 1)], summed in id order. *)
let region_area lib (d : Ir.design) ids lo hi =
  let a = ref 0.0 in
  for k = lo to hi - 1 do
    a := !a +. (Ir.params d lib ids.(k)).Library.area_um2
  done;
  !a

let widest_cell lib (d : Ir.design) ids lo hi =
  let widest = ref 0.0 in
  for k = lo to hi - 1 do
    let w = inst_width lib d ids.(k) in
    if w > !widest then widest := w
  done;
  !widest

(** [sdp lib macro] — structured placement of a built macro. *)
let sdp lib (m : Macro_rtl.t) : t =
  let d = m.Macro_rtl.design in
  let cfg = m.Macro_rtl.cfg in
  let n = Ir.n_insts d in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  let { ids; start } = classify d in
  let cell_w =
    (Library.params lib (Cell.Sram cfg.cell_kind) Cell.X1).Library.area_um2
    /. row_height
  in
  (* column [c]'s strip is [ids.(strip_first c) .. ids.(strip_first (c + 1)
     - 1)]: chunks of the column-major strip region *)
  let strip_lo = start.(r_strip) in
  let n_strip = start.(r_strip + 1) - strip_lo in
  let strip_first c = strip_lo + (c * n_strip / cfg.cols) in
  (* mulmux elements: row-major, a constant instance count per element *)
  let mm_lo = start.(r_mulmux) in
  let n_mm = start.(r_mulmux + 1) - mm_lo in
  let n_elems = cfg.rows * cfg.cols in
  let per_elem = if n_elems = 0 then 0 else n_mm / max n_elems 1 in
  (* the multiplier slot must fit the widest element (drives may differ) *)
  let mul_w =
    if n_mm = 0 || per_elem = 0 then 0.0
    else begin
      let widest = ref 0.0 in
      for e = 0 to n_elems - 1 do
        let w = ref 0.0 in
        for s = 0 to per_elem - 1 do
          w :=
            !w +. inst_width lib d ids.(mm_lo + (e * per_elem) + s)
        done;
        if !w > !widest then widest := !w
      done;
      !widest
    end
  in
  (* per-column strip width from its own area, with packing margin, and
     the column pitch; each computed once *)
  let array_h = float_of_int cfg.rows *. row_height in
  let mcr_w = float_of_int cfg.mcr *. cell_w in
  let strip_w = Array.make cfg.cols 0.0 and pitch = Array.make cfg.cols 0.0 in
  for c = 0 to cfg.cols - 1 do
    let lo = strip_first c and hi = strip_first (c + 1) in
    let a = region_area lib d ids lo hi in
    strip_w.(c) <-
      Float.max
        (widest_cell lib d ids lo hi)
        (Float.max cell_w (1.12 *. a /. array_h));
    pitch.(c) <- mcr_w +. mul_w +. strip_w.(c) +. 0.2
  done;
  (* left band for WL drivers and the aligner *)
  let left_lo = start.(r_left) in
  let n_left = start.(r_left + 1) - left_lo in
  let left_area = region_area lib d ids left_lo (left_lo + n_left) in
  (* fold the columns into stripes so the die aspect stays near square:
     a flat 1 x cols arrangement would make every cross-array net as long
     as the whole die *)
  let total_flat_w = ref 0.0 in
  for c = 0 to cfg.cols - 1 do
    total_flat_w := !total_flat_w +. pitch.(c)
  done;
  let n_stripes =
    Intmath.clamp ~lo:1 ~hi:8
      (int_of_float (Float.round (sqrt (!total_flat_w /. array_h))))
  in
  let cols_per_stripe = Intmath.ceil_div cfg.cols n_stripes in
  let left_w =
    Float.max
      (widest_cell lib d ids left_lo (left_lo + n_left))
      (Float.max 2.0
         (1.15 *. left_area /. (array_h *. float_of_int n_stripes)))
  in
  (* x offset of each column within its stripe *)
  let col_x = Array.make cfg.cols left_w in
  let die_w = ref 0.0 in
  for c = 0 to cfg.cols - 1 do
    col_x.(c) <-
      (if c mod cols_per_stripe = 0 then left_w
       else col_x.(c - 1) +. pitch.(c - 1));
    if col_x.(c) +. pitch.(c) > !die_w then die_w := col_x.(c) +. pitch.(c)
  done;
  let die_w = !die_w in
  (* place stripes bottom-up, tracking each stripe's real height; the
     bit cells and multiplier elements do not add to it and are placed
     once every stripe's base is known *)
  let word_lo = start.(r_word) in
  let n_word_ids = start.(r_word + 1) - word_lo in
  let wb = m.Macro_rtl.wb and words = m.Macro_rtl.words in
  let stripe_base = Array.make (n_stripes + 1) 0.0 in
  for s = 0 to n_stripes - 1 do
    let base = stripe_base.(s) in
    let c_lo = s * cols_per_stripe
    and c_hi = min cfg.cols ((s + 1) * cols_per_stripe) - 1 in
    let stripe_used = ref array_h in
    (* adder/S&A strips fill the gap next to each column *)
    for c = c_lo to c_hi do
      let x0 = col_x.(c) +. mcr_w +. mul_w in
      let h =
        fill_region lib d ~x ~y ~x0 ~y0:base ~width:strip_w.(c) ids
          (strip_first c)
          (strip_first (c + 1))
      in
      if h > !stripe_used then stripe_used := h
    done;
    (* left band slice for this stripe's share of WL/align cells *)
    let lh =
      fill_region lib d ~x ~y ~x0:0.0 ~y0:base ~width:left_w ids
        (left_lo + (s * n_left / n_stripes))
        (left_lo + ((s + 1) * n_left / n_stripes))
    in
    if lh > !stripe_used then stripe_used := lh;
    (* this stripe's word band: each word's OFU block directly below its
       own columns ("peripheral logic around the array"), so the
       S&A-to-OFU nets never cross stripes *)
    if words > 0 && n_word_ids > 0 then begin
      let band_y = base +. !stripe_used in
      let band_h = ref 0.0 in
      for g = 0 to words - 1 do
        let c_first = g * wb in
        if c_first >= c_lo && c_first <= c_hi then begin
          let c_last = min c_hi (c_first + wb - 1) in
          let x0 = col_x.(c_first) in
          let width = Float.max 6.0 (col_x.(c_last) +. pitch.(c_last) -. x0) in
          let h =
            fill_region lib d ~x ~y ~x0 ~y0:band_y ~width ids
              (word_lo + (g * n_word_ids / words))
              (word_lo + ((g + 1) * n_word_ids / words))
          in
          if h > !band_h then band_h := h
        end
      done;
      stripe_used := !stripe_used +. !band_h
    end;
    stripe_base.(s + 1) <- base +. !stripe_used +. row_height
  done;
  (* bit cells on the exact grid *)
  for k = start.(r_bitcell) to start.(r_bitcell + 1) - 1 do
    let i = ids.(k) in
    let col = Ir.weight_col d i in
    if Ir.is_weight d i && col < cfg.cols then begin
      x.(i) <-
        col_x.(col) +. ((float_of_int (Ir.weight_copy d i) +. 0.5) *. cell_w);
      y.(i) <-
        stripe_base.(col / cols_per_stripe)
        +. ((float_of_int (Ir.weight_row d i) +. 0.5) *. row_height)
    end
  done;
  (* multiplier/mux elements beside their cells, each element's cells
     packed left to right *)
  let cursor = ref 0.0 and cursor_elem = ref (-1) in
  for idx = 0 to n_mm - 1 do
    let i = ids.(mm_lo + idx) in
    let elem = if per_elem = 0 then 0 else idx / per_elem in
    if elem <> !cursor_elem then begin
      cursor_elem := elem;
      cursor := 0.0
    end;
    let row = elem / cfg.cols and col = elem mod cfg.cols in
    let w = inst_width lib d i in
    x.(i) <- col_x.(col) +. mcr_w +. !cursor +. (w /. 2.0);
    cursor := !cursor +. w;
    y.(i) <-
      stripe_base.(col / cols_per_stripe)
      +. ((float_of_int row +. 0.5) *. row_height)
  done;
  (* misc band (BL drivers etc.) across the full die at the bottom *)
  let band_y = stripe_base.(n_stripes) in
  let bot_h =
    fill_region lib d ~x ~y ~x0:0.0 ~y0:band_y ~width:die_w ids
      start.(r_misc)
      start.(r_misc + 1)
  in
  let die_h = band_y +. bot_h in
  { design = d; style = Sdp; x; y; die_w; die_h; row_height }

(** [scattered lib macro ~seed] — the unstructured baseline: every cell
    shuffled row-major over a die of the same aspect and total area. *)
let scattered lib (m : Macro_rtl.t) ~seed : t =
  let d = m.Macro_rtl.design in
  let n = Ir.n_insts d in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  let ids = Array.init n Fun.id in
  let total_area = region_area lib d ids 0 n in
  (* same utilization as SDP roughly: 15 % whitespace *)
  let die_w = sqrt (total_area /. 0.85) in
  let rng = Rng.create seed in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let die_h = fill_region lib d ~x ~y ~x0:0.0 ~y0:0.0 ~width:die_w ids 0 n in
  { design = d; style = Scattered; x; y; die_w; die_h; row_height }

let area_mm2 (t : t) = t.die_w *. t.die_h /. 1e6
