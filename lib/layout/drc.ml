(** Design-rule checks on a placement: every cell inside the die, and no
    two cells overlapping within a row — the geometric subset of a DRC
    deck that a coarse row-based placement can violate. *)

type violation =
  | Out_of_bounds of int
  | Overlap of int * int

let violation_to_string = function
  | Out_of_bounds i -> Printf.sprintf "instance %d outside die" i
  | Overlap (a, b) -> Printf.sprintf "instances %d and %d overlap" a b

(* The scan order of placed cells: by row, then left edge ([Float.compare],
   so a NaN edge sorts first), then descending instance id. *)
let[@inline] before (row : int array) (x0 : float array) a b =
  let ra = row.(a) and rb = row.(b) in
  if ra <> rb then ra < rb
  else
    let c = Float.compare x0.(a) x0.(b) in
    if c <> 0 then c < 0 else a > b

(* Sort [perm.(lo) .. perm.(hi - 1)] by {!before}: a merge sort through
   the scratch array [tmp], with insertion sort on short runs. *)
let rec sort_cells row x0 perm tmp lo hi =
  if hi - lo <= 12 then
    for k = lo + 1 to hi - 1 do
      let v = perm.(k) in
      let j = ref (k - 1) in
      while !j >= lo && before row x0 v perm.(!j) do
        perm.(!j + 1) <- perm.(!j);
        decr j
      done;
      perm.(!j + 1) <- v
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_cells row x0 perm tmp lo mid;
    sort_cells row x0 perm tmp mid hi;
    if before row x0 perm.(mid) perm.(mid - 1) then begin
      Array.blit perm lo tmp lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && not (before row x0 tmp.(!j) tmp.(!i)))
        then begin
          perm.(k) <- tmp.(!i);
          incr i
        end
        else begin
          perm.(k) <- tmp.(!j);
          incr j
        end
      done
    end
  end

(** [check lib p] returns all violations (empty means DRC-clean): first
    every overlap between row neighbours, by row and then left edge; then
    every instance outside the die in ascending id order. An instance the
    placement arrays are too short to hold is outside the die. *)
let check lib (p : Floorplan.t) : violation list =
  let d = p.design in
  let n = Ir.n_insts d in
  let placed = min n (min (Array.length p.x) (Array.length p.y)) in
  let x0 = Array.make placed 0.0
  and x1 = Array.make placed 0.0
  and row = Array.make placed 0 in
  let outside = Bytes.make n '\001' in
  let rlo = ref max_int and rhi = ref min_int in
  for i = 0 to placed - 1 do
    (* [Floorplan.inst_width], inlined: a float returned across modules
       is boxed *)
    let w = (Ir.params d lib i).Library.area_um2 /. Floorplan.row_height in
    let a = p.x.(i) -. (w /. 2.0) and b = p.x.(i) +. (w /. 2.0) in
    x0.(i) <- a;
    x1.(i) <- b;
    if
      not
        (a < -1e-3 || b > p.die_w +. 1e-3 || p.y.(i) < 0.0
       || p.y.(i) > p.die_h)
    then Bytes.unsafe_set outside i '\000';
    let r = int_of_float (p.y.(i) /. p.row_height) in
    row.(i) <- r;
    if r < !rlo then rlo := r;
    if r > !rhi then rhi := r
  done;
  (* order the cells by row, then left edge: a counting sort on rows and
     a sort within each row; rows a corrupted placement scatters too
     widely for a counting sort are sorted in one pass instead *)
  let perm = Array.make placed 0 and tmp = Array.make placed 0 in
  let span = !rhi - !rlo in
  if placed > 0 && span >= 0 && span <= (2 * placed) + 64 then begin
    let start = Array.make (span + 2) 0 in
    for i = 0 to placed - 1 do
      let r = row.(i) - !rlo + 1 in
      start.(r) <- start.(r) + 1
    done;
    for r = 1 to span + 1 do
      start.(r) <- start.(r) + start.(r - 1)
    done;
    for i = 0 to placed - 1 do
      let r = row.(i) - !rlo in
      perm.(start.(r)) <- i;
      start.(r) <- start.(r) + 1
    done;
    (* [start.(r)] now ends row [r] *)
    let lo = ref 0 in
    for r = 0 to span do
      sort_cells row x0 perm tmp !lo start.(r);
      lo := start.(r)
    done
  end
  else begin
    for i = 0 to placed - 1 do
      perm.(i) <- i
    done;
    sort_cells row x0 perm tmp 0 placed
  end;
  let violations = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.unsafe_get outside i = '\001' then
      violations := Out_of_bounds i :: !violations
  done;
  for k = placed - 1 downto 1 do
    let a = perm.(k - 1) and b = perm.(k) in
    if row.(a) = row.(b) && x0.(b) < x1.(a) -. 1e-3 then
      violations := Overlap (a, b) :: !violations
  done;
  !violations
