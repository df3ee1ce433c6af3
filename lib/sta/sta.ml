(** Static timing analysis over frozen netlists.

    Arrival times propagate in topological order from launch points
    (primary inputs at 0 ps, flip-flop Q pins at clock-to-Q, SRAM outputs at
    0 ps because weights are static during MAC) through load-dependent cell
    delays. Endpoints are flip-flop D pins (plus setup) and primary
    outputs. All delays are at the library's nominal voltage; operating
    points scale the reported critical path through {!Voltage}, which
    is exact because the alpha-power law scales every cell uniformly. *)

type endpoint =
  | Reg_d of int  (** instance id of the capturing flip-flop *)
  | Primary_out of string * int  (** bus name, bit index *)

type path_step = { inst : int; through_net : Ir.net; at_ps : float }

type report = {
  crit_ps : float;  (** worst endpoint arrival incl. setup, nominal VDD *)
  endpoint : endpoint;
  path : path_step list;  (** launch-to-capture, in order *)
  arrivals : float array;  (** per net, nominal VDD *)
}

(** [fmax_ghz r] converts the nominal critical path to a clock ceiling. *)
let fmax_ghz r = if r.crit_ps <= 0.0 then infinity else 1000.0 /. r.crit_ps

(** [analyze ?loads d lib] — [loads] is the per-net fanout-load map
    ({!Ir.fanout_loads}); pass it to share one map across the forward
    pass, {!slacks} and {!Power.estimate} instead of recomputing the
    consumer folds in each. It must reflect the current instance drives
    (recompute after sizing mutates them). *)
let analyze ?(wire_cap = fun (_ : Ir.net) -> 0.0)
    ?(input_arrival = fun (_ : string) -> 0.0) ?loads (d : Ir.design)
    (lib : Library.t) : report =
  let loads =
    match loads with
    | Some l -> l
    | None -> Ir.fanout_loads d lib ~wire_cap ()
  in
  let arr = Array.make d.n_nets 0.0 in
  let pred = Array.make d.n_nets (-1) in
  (* predecessor net on the worst path *)
  let via = Array.make d.n_nets (-1) in
  (* instance producing the net *)
  List.iter
    (fun (name, bus) ->
      let a = input_arrival name in
      Array.iter (fun net -> arr.(net) <- a) bus)
    (Ir.inputs d.src);
  Array.iter
    (fun i ->
      let inst = d.insts.(i) in
      let p = Library.params lib inst.kind inst.drive in
      Array.iter
        (fun net ->
          arr.(net) <- p.clk_q_ps;
          via.(net) <- i)
        inst.outs)
    d.seq;
  Array.iter
    (fun i ->
      let inst = d.insts.(i) in
      (* static weights: launch at 0 but still record provenance *)
      Array.iter (fun net -> via.(net) <- i) inst.outs)
    d.storage;
  Array.iter
    (fun i ->
      let inst = d.insts.(i) in
      let worst_in = ref Ir.const0 and worst_arr = ref neg_infinity in
      Array.iter
        (fun net ->
          if arr.(net) > !worst_arr then begin
            worst_arr := arr.(net);
            worst_in := net
          end)
        inst.ins;
      let in_arr = if Array.length inst.ins = 0 then 0.0 else !worst_arr in
      Array.iteri
        (fun o net ->
          let load = loads.(net) in
          let dly =
            Library.delay_ps lib ~kind:inst.kind ~drive:inst.drive ~out:o
              ~load_ff:load
          in
          let a = in_arr +. dly in
          if a > arr.(net) then begin
            arr.(net) <- a;
            pred.(net) <- (if Array.length inst.ins = 0 then -1 else !worst_in);
            via.(net) <- i
          end)
        inst.outs)
    d.comb_order;
  (* Endpoints *)
  let worst = ref neg_infinity in
  let worst_ep = ref (Primary_out ("", 0)) in
  let worst_net = ref (-1) in
  Array.iter
    (fun i ->
      let inst = d.insts.(i) in
      let p = Library.params lib inst.kind inst.drive in
      Array.iter
        (fun net ->
          let a = arr.(net) +. p.setup_ps in
          if a > !worst then begin
            worst := a;
            worst_ep := Reg_d i;
            worst_net := net
          end)
        inst.ins)
    d.seq;
  List.iter
    (fun (name, bus) ->
      Array.iteri
        (fun idx net ->
          if arr.(net) > !worst then begin
            worst := arr.(net);
            worst_ep := Primary_out (name, idx);
            worst_net := net
          end)
        bus)
    (Ir.outputs d.src);
  (* Reconstruct the critical path by walking predecessors. *)
  let rec walk net acc =
    if net < 0 then acc
    else
      let step = { inst = via.(net); through_net = net; at_ps = arr.(net) } in
      let acc = if via.(net) >= 0 then step :: acc else acc in
      walk pred.(net) acc
  in
  let path = if !worst_net >= 0 then walk !worst_net [] else [] in
  {
    crit_ps = (if !worst = neg_infinity then 0.0 else !worst);
    endpoint = !worst_ep;
    path;
    arrivals = arr;
  }

(** [slacks r d lib ~target_ps] — per-net slack against a cycle budget:
    a reverse-topological required-time pass from the endpoints (flip-flop
    D pins at [target - setup], primary outputs at [target]) back through
    the same load-dependent delays the forward pass used. Negative slack
    marks every net on a violating path, not just the single worst one —
    which is what lets the sizing pass fix all parallel columns in one
    round. *)
let slacks (r : report) (d : Ir.design) (lib : Library.t)
    ?(wire_cap = fun (_ : Ir.net) -> 0.0) ?loads ~target_ps () =
  let loads =
    match loads with
    | Some l -> l
    | None -> Ir.fanout_loads d lib ~wire_cap ()
  in
  let req = Array.make d.n_nets infinity in
  let relax net v = if v < req.(net) then req.(net) <- v in
  Array.iter
    (fun i ->
      let inst = d.insts.(i) in
      let p = Library.params lib inst.kind inst.drive in
      Array.iter (fun net -> relax net (target_ps -. p.setup_ps)) inst.ins)
    d.seq;
  List.iter
    (fun (_, bus) -> Array.iter (fun net -> relax net target_ps) bus)
    (Ir.outputs d.src);
  (* reverse topological order over combinational instances *)
  for idx = Array.length d.comb_order - 1 downto 0 do
    let i = d.comb_order.(idx) in
    let inst = d.insts.(i) in
    let worst_req = ref infinity in
    Array.iteri
      (fun o net ->
        let load = loads.(net) in
        let dly =
          Library.delay_ps lib ~kind:inst.kind ~drive:inst.drive ~out:o
            ~load_ff:load
        in
        let v = req.(net) -. dly in
        if v < !worst_req then worst_req := v)
      inst.outs;
    Array.iter (fun net -> relax net !worst_req) inst.ins
  done;
  Array.init d.n_nets (fun net -> req.(net) -. r.arrivals.(net))

(** [crit_ps_at r node ~vdd] scales the nominal critical path to an
    operating voltage. *)
let crit_ps_at (r : report) node ~vdd =
  r.crit_ps *. Voltage.delay_scale node ~vdd

(** [meets r node ~vdd ~freq_hz] checks the design closes timing at the
    operating point. *)
let meets (r : report) node ~vdd ~freq_hz =
  Voltage.fmax node ~crit_path_ps:r.crit_ps ~vdd >= freq_hz
