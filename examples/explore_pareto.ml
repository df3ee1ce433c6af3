(* Design-space exploration tour: run the multi-spec-oriented searcher
   under every PPA preference on the paper's Fig. 8 specification, print
   the visited cloud and the Pareto frontier, and show where the baseline
   compilers land relative to it.

   Run with: dune exec examples/explore_pareto.exe *)

let () =
  let ctx = Ctx.default () in
  let spec = Spec.fig8 in
  Printf.printf "spec: %s\n\n" (Spec.describe spec);
  let frontier, cloud =
    Searcher.pareto_sweep (Ctx.lib ctx) (Ctx.scl ctx) spec
  in
  Printf.printf "visited %d timing-meeting design points; frontier:\n"
    (List.length cloud);
  List.iter
    (fun (p : Design_point.t) ->
      Printf.printf "  %s\n" (Design_point.summary p))
    frontier;
  print_newline ();
  print_endline "baselines at the same spec:";
  List.iter
    (fun (name, (p : Design_point.t)) ->
      let dominated =
        List.exists
          (fun (f : Design_point.t) ->
            Design_point.power_w f <= Design_point.power_w p
            && f.Design_point.area_um2 <= p.Design_point.area_um2)
          frontier
      in
      Printf.printf "  %-28s %s%s\n" name (Design_point.summary p)
        (if dominated then "  << dominated by the frontier" else ""))
    (Baselines.all ctx spec);
  print_newline ();
  (* a simple text scatter of the cloud: power (x) vs area (y) *)
  print_endline "cloud scatter (x = power, y = area; F = frontier, . = other):";
  let all = cloud in
  let min_max f =
    List.fold_left
      (fun (lo, hi) p -> (Float.min lo (f p), Float.max hi (f p)))
      (infinity, neg_infinity) all
  in
  let pw = Design_point.power_w in
  let ar (p : Design_point.t) = p.Design_point.area_um2 in
  let p0, p1 = min_max pw and a0, a1 = min_max ar in
  let cols = 48 and rows_ = 14 in
  let grid = Array.make_matrix rows_ cols ' ' in
  let place ch p =
    let xi =
      int_of_float ((pw p -. p0) /. (p1 -. p0 +. 1e-12) *. float_of_int (cols - 1))
    in
    let yi =
      int_of_float ((ar p -. a0) /. (a1 -. a0 +. 1e-12) *. float_of_int (rows_ - 1))
    in
    grid.(rows_ - 1 - yi).(xi) <- ch
  in
  List.iter (place '.') all;
  List.iter (place 'F') frontier;
  Array.iter (fun row -> print_endline (String.init cols (Array.get row))) grid;
  Printf.printf "power %.1f..%.1f mW, area %.3f..%.3f mm2\n" (p0 *. 1e3)
    (p1 *. 1e3) (a0 /. 1e6) (a1 /. 1e6)
