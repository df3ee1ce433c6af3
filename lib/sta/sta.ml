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
  let kinds = d.kinds and drives = d.drives in
  let pin_start = d.pin_start and pins = d.pins in
  let table = lib.Library.table and n_drives = Cell.n_drives in
  let n_ins_by_kind = Ir.n_ins_by_kind in
  let arr = Array.make d.n_nets 0.0 in
  let pred = Array.make d.n_nets (-1) in
  (* predecessor net on the worst path *)
  let via = Array.make d.n_nets (-1) in
  (* instance producing the net *)
  List.iter
    (fun (name, bus) ->
      let a = input_arrival name in
      for b = 0 to Array.length bus - 1 do
        arr.(bus.(b)) <- a
      done)
    (Ir.inputs d.src);
  for k = 0 to Array.length d.seq - 1 do
    let i = d.seq.(k) in
    let kind = Char.code (Bytes.unsafe_get kinds i) in
    let p =
      table.((kind * n_drives) + Char.code (Bytes.unsafe_get drives i))
    in
    for q = pin_start.(i) + n_ins_by_kind.(kind) to pin_start.(i + 1) - 1 do
      let net = pins.(q) in
      arr.(net) <- p.clk_q_ps;
      via.(net) <- i
    done
  done;
  for k = 0 to Array.length d.storage - 1 do
    let i = d.storage.(k) in
    (* static weights: launch at 0 but still record provenance *)
    let kind = Char.code (Bytes.unsafe_get kinds i) in
    for q = pin_start.(i) + n_ins_by_kind.(kind) to pin_start.(i + 1) - 1 do
      via.(pins.(q)) <- i
    done
  done;
  (* forward pass; the delay is {!Library.delay_ps} inlined *)
  let order = d.comb_order in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    let kind = Char.code (Bytes.unsafe_get kinds i) in
    let s = pin_start.(i) in
    let n_ins = n_ins_by_kind.(kind) in
    let worst_in = ref Ir.const0 and worst_arr = ref neg_infinity in
    for q = s to s + n_ins - 1 do
      let net = pins.(q) in
      if arr.(net) > !worst_arr then begin
        worst_arr := arr.(net);
        worst_in := net
      end
    done;
    let in_arr = if n_ins = 0 then 0.0 else !worst_arr in
    let from = if n_ins = 0 then -1 else !worst_in in
    let p =
      table.((kind * n_drives) + Char.code (Bytes.unsafe_get drives i))
    in
    let intrinsic = p.intrinsic_ps in
    let last = Array.length intrinsic - 1 in
    let s_out = s + n_ins in
    for q = s_out to pin_start.(i + 1) - 1 do
      let net = pins.(q) in
      let o = q - s_out in
      let dly =
        intrinsic.(if o < last then o else last)
        +. (p.drive_res_ps_per_ff *. loads.(net))
      in
      let a = in_arr +. dly in
      if a > arr.(net) then begin
        arr.(net) <- a;
        pred.(net) <- from;
        via.(net) <- i
      end
    done
  done;
  (* Endpoints: flip-flop D pins, then primary outputs. [worst_reg] is
     the capturing flip-flop, or -1 when the worst endpoint is output bit
     [worst_bit] of bus [worst_bus]. *)
  let worst = ref neg_infinity in
  let worst_reg = ref (-1) and worst_bus = ref "" and worst_bit = ref 0 in
  let worst_net = ref (-1) in
  for k = 0 to Array.length d.seq - 1 do
    let i = d.seq.(k) in
    let kind = Char.code (Bytes.unsafe_get kinds i) in
    let p =
      table.((kind * n_drives) + Char.code (Bytes.unsafe_get drives i))
    in
    let s = pin_start.(i) in
    for q = s to s + n_ins_by_kind.(kind) - 1 do
      let net = pins.(q) in
      let a = arr.(net) +. p.setup_ps in
      if a > !worst then begin
        worst := a;
        worst_reg := i;
        worst_net := net
      end
    done
  done;
  (* a list walk, not [List.iter]: a closure would box [worst] *)
  let outputs = ref (Ir.outputs d.src) in
  while
    match !outputs with
    | [] -> false
    | (name, bus) :: rest ->
        outputs := rest;
        for idx = 0 to Array.length bus - 1 do
          let net = bus.(idx) in
          if arr.(net) > !worst then begin
            worst := arr.(net);
            worst_reg := -1;
            worst_bus := name;
            worst_bit := idx;
            worst_net := net
          end
        done;
        true
  do
    ()
  done;
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
    endpoint =
      (if !worst_reg >= 0 then Reg_d !worst_reg
       else Primary_out (!worst_bus, !worst_bit));
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
  let kinds = d.kinds and drives = d.drives in
  let pin_start = d.pin_start and pins = d.pins in
  let table = lib.Library.table and n_drives = Cell.n_drives in
  let n_ins_by_kind = Ir.n_ins_by_kind in
  let req = Array.make d.n_nets infinity in
  for k = 0 to Array.length d.seq - 1 do
    let i = d.seq.(k) in
    let kind = Char.code (Bytes.unsafe_get kinds i) in
    let p =
      table.((kind * n_drives) + Char.code (Bytes.unsafe_get drives i))
    in
    let s = pin_start.(i) in
    for q = s to s + n_ins_by_kind.(kind) - 1 do
      let net = pins.(q) in
      let v = target_ps -. p.setup_ps in
      if v < req.(net) then req.(net) <- v
    done
  done;
  List.iter
    (fun (_, bus) ->
      for b = 0 to Array.length bus - 1 do
        let net = bus.(b) in
        if target_ps < req.(net) then req.(net) <- target_ps
      done)
    (Ir.outputs d.src);
  (* reverse topological order over combinational instances, with the
     forward pass's inlined delay *)
  let order = d.comb_order in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let kind = Char.code (Bytes.unsafe_get kinds i) in
    let p =
      table.((kind * n_drives) + Char.code (Bytes.unsafe_get drives i))
    in
    let intrinsic = p.intrinsic_ps in
    let last = Array.length intrinsic - 1 in
    let s = pin_start.(i) in
    let s_out = s + n_ins_by_kind.(kind) in
    let worst_req = ref infinity in
    for q = s_out to pin_start.(i + 1) - 1 do
      let net = pins.(q) in
      let o = q - s_out in
      let dly =
        intrinsic.(if o < last then o else last)
        +. (p.drive_res_ps_per_ff *. loads.(net))
      in
      let v = req.(net) -. dly in
      if v < !worst_req then worst_req := v
    done;
    for q = s to s_out - 1 do
      let net = pins.(q) in
      if !worst_req < req.(net) then req.(net) <- !worst_req
    done
  done;
  (* required minus arrival, in place *)
  let arrivals = r.arrivals in
  for net = 0 to d.n_nets - 1 do
    req.(net) <- req.(net) -. arrivals.(net)
  done;
  req

(** [crit_ps_at r node ~vdd] scales the nominal critical path to an
    operating voltage. *)
let crit_ps_at (r : report) node ~vdd =
  r.crit_ps *. Voltage.delay_scale node ~vdd

(** [meets r node ~vdd ~freq_hz] checks the design closes timing at the
    operating point. *)
let meets (r : report) node ~vdd ~freq_hz =
  Voltage.fmax node ~crit_path_ps:r.crit_ps ~vdd >= freq_hz
