(** Bit-sliced cycle simulator: up to [63 * k] independent simulations of
    one design, packed one lane per bit of [k] native words per net.

    Gate evaluation is word-level ({!Cell.eval_word_into}): one bitwise
    expression settles a cell for 63 lanes at once, so a run advances
    [63 * k] simulations for roughly [k] times the cost the scalar {!Sim}
    pays for one. The lanes are completely independent — different
    inputs, different weights, different register histories — which is
    exactly the shape of the two workloads that dominate the compiler:

    - power Monte Carlo: one random MAC replica per lane, so toggle
      statistics converge with a fraction of the wall clock;
    - verification fan-out: spec-fuzzer vectors checked against
      {!Golden} one per lane, with a failing lane shrunk back to a
      single scalar reproduction.

    Lane [l] lives in word [l / 63], bit [l mod 63], and every net holds
    its [k] words contiguously in one flat array ([net * words + w]), so
    a [k]-word slice runs the same gate expression [k] times per
    instance with no per-net indirection. The one-word slice (63 lanes,
    the [packed] engine) is the default everywhere; {!eval} and {!clock}
    take a dedicated single-word loop for it, chosen from the lane
    count.

    Toggle accounting stays exact per lane: a net's counter advances by
    [popcount ((old lxor new) land mask)] summed over its words, which is
    bit-for-bit the sum of the per-lane scalar counters; enabled-DFF duty
    sums enable popcounts per word, and weight writes charge every active
    lane. OCaml's boxed-free [int] has 63 usable bits (one bit of the
    machine word is the pointer tag), hence 63 lanes per word, not 64.
    The cross-engine conformance suite in test/ proves the equivalence
    with the scalar {!Sim} bit-for-bit per width. *)

(** Lanes carried per word: the native [int] width (63 on 64-bit hosts),
    and the width of the default [packed] engine. *)
let word_lanes = Sys.int_size

(** Hard cap on the slice width — 64 words (4032 lanes on 64-bit hosts).
    Wide enough for any plausible vector unit, small enough that a typo
    in a width argument fails loudly instead of allocating gigabytes. *)
let max_words = 64

let max_lanes = word_lanes * max_words

type t = {
  d : Ir.design;
  n_lanes : int;  (** active lanes across all words *)
  words : int;  (** words per net: [ceil_div n_lanes word_lanes] *)
  masks : int array;
      (** active-lane mask per word; every word is [-1] except a partial
          last word *)
  values : int array;  (** [net * words + w]: value words per net *)
  seq_state : int array;  (** [inst * words + w]; only sequential slots *)
  storage_state : int array;  (** [inst * words + w]; only storage slots *)
  toggles : int array;
      (** output toggle count per net, summed over all lanes of all
          words — the exact sum of the per-lane scalar counters *)
  en_cycles : int array;
      (** per instance: lane-summed enabled-flip-flop duty *)
  mutable cycles : int;  (** cycles advanced (per lane, not lane-summed) *)
  mutable weight_flips : int;  (** SRAM bits flipped by writes, lane-summed *)
  mutable weight_writes : int;  (** SRAM write ops, lane-summed *)
  scratch_ins : int array;  (** word staging, {!Cell.max_inputs} wide *)
  scratch_outs : int array;  (** same, {!Cell.max_outputs} wide *)
  seq_next : int array;  (** {!clock}'s next-state staging, seq slot * words *)
}

(** [words_for n_lanes] is the number of native words a [n_lanes]-wide
    slice needs. *)
let words_for n_lanes = Intmath.ceil_div n_lanes word_lanes

let create ?n_lanes (d : Ir.design) =
  let n_lanes =
    match n_lanes with None -> 2 * word_lanes | Some l -> l
  in
  if n_lanes < 1 || n_lanes > max_lanes then
    invalid_arg
      (Printf.sprintf
         "Sim_multiword.create: requested %d lanes, valid range is 1..%d"
         n_lanes max_lanes);
  let words = words_for n_lanes in
  let masks =
    Array.init words (fun w ->
        let lo = w * word_lanes in
        let n = min word_lanes (n_lanes - lo) in
        if n = word_lanes then -1 else (1 lsl n) - 1)
  in
  let n = Ir.n_insts d in
  let t =
    {
      d;
      n_lanes;
      words;
      masks;
      values = Array.make (d.n_nets * words) 0;
      seq_state = Array.make (max n 1 * words) 0;
      storage_state = Array.make (max n 1 * words) 0;
      toggles = Array.make d.n_nets 0;
      en_cycles = Array.make (max n 1) 0;
      cycles = 0;
      weight_flips = 0;
      weight_writes = 0;
      scratch_ins = Array.make Cell.max_inputs 0;
      scratch_outs = Array.make Cell.max_outputs 0;
      seq_next = Array.make (max (Array.length d.seq) 1 * words) 0;
    }
  in
  for w = 0 to words - 1 do
    t.values.((Ir.const1 * words) + w) <- masks.(w)
  done;
  t

let lanes_of t = t.n_lanes
let words_of t = t.words

(** [set_net_word t net w v] drives word [w] of [net] with the lane word
    [v] (masked to that word's active lanes) and charges one toggle per
    lane that changed. *)
let set_net_word t net w v =
  let v = v land t.masks.(w) in
  let idx = (net * t.words) + w in
  let old = t.values.(idx) in
  if old <> v then begin
    t.values.(idx) <- v;
    t.toggles.(net) <- t.toggles.(net) + Intmath.popcount (old lxor v)
  end

(** [set_bus t name v] drives the named input bus with the low bits of
    [v], broadcast identically to every lane in every word — the
    control-signal path: all lanes share one MAC schedule. *)
let set_bus t name v =
  let bus = Ir.input_bus t.d.src name in
  Array.iteri
    (fun i net ->
      let b = (v asr i) land 1 = 1 in
      for w = 0 to t.words - 1 do
        set_net_word t net w (if b then t.masks.(w) else 0)
      done)
    bus

(** [set_bus_lanes t name vs] drives the named input bus with a distinct
    integer per lane: bit [i] of [vs.(l)] lands in lane [l] of bus bit
    [i]. Lanes beyond [Array.length vs] are driven to zero. *)
let set_bus_lanes t name (vs : int array) =
  let bus = Ir.input_bus t.d.src name in
  let n = min (Array.length vs) t.n_lanes in
  Array.iteri
    (fun i net ->
      for w = 0 to t.words - 1 do
        let lo = w * word_lanes in
        let hi = min n (lo + word_lanes) in
        let v = ref 0 in
        for l = lo to hi - 1 do
          v := !v lor (((vs.(l) asr i) land 1) lsl (l - lo))
        done;
        set_net_word t net w !v
      done)
    bus

(** [read_bus_lane t name lane] reads the named output bus of one lane as
    an unsigned integer. *)
let read_bus_lane t name lane =
  assert (lane >= 0 && lane < t.n_lanes);
  let w = lane / word_lanes and bit = lane mod word_lanes in
  let bus = Ir.output_bus t.d.src name in
  let v = ref 0 in
  for i = 0 to Array.length bus - 1 do
    if (t.values.((bus.(i) * t.words) + w) lsr bit) land 1 = 1 then
      v := !v lor (1 lsl i)
  done;
  !v

(** [read_bus_signed_lane t name lane] — {!read_bus_lane} as a signed
    two's-complement integer. *)
let read_bus_signed_lane t name lane =
  let bus = Ir.output_bus t.d.src name in
  Intmath.sign_extend ~width:(Array.length bus) (read_bus_lane t name lane)

let lane_bit words (state : int array) lane slot =
  let w = lane / word_lanes and bit = lane mod word_lanes in
  (state.((slot * words) + w) lsr bit) land 1 = 1

(** [extract_lane t lane] snapshots one lane's net values as the bool
    array the scalar simulator holds — the cross-check hook the
    conformance suite drives. *)
let extract_lane t lane : bool array =
  assert (lane >= 0 && lane < t.n_lanes);
  Array.init t.d.n_nets (fun net -> lane_bit t.words t.values lane net)

(** [seq_state_lane t lane] / [storage_state_lane t lane] — one lane's
    register / SRAM state, for cross-checking against [Sim.seq_state] /
    [Sim.storage_state]. *)
let seq_state_lane t lane : bool array =
  assert (lane >= 0 && lane < t.n_lanes);
  let n = Array.length t.seq_state / t.words in
  Array.init n (fun i -> lane_bit t.words t.seq_state lane i)

let storage_state_lane t lane : bool array =
  assert (lane >= 0 && lane < t.n_lanes);
  let n = Array.length t.storage_state / t.words in
  Array.init n (fun i -> lane_bit t.words t.storage_state lane i)

(* Write the SRAM weight bit at (row, col, copy) in every active lane:
   [word_of w] is the bit pattern of word [w]. Every active lane is
   charged a write, only flipped lanes a flip. *)
let write_weight t ~row ~col ~copy word_of =
  match Hashtbl.find_opt t.d.weight_index (row, col, copy) with
  | None ->
      invalid_arg
        (Printf.sprintf "Sim_multiword: no weight bit (%d,%d,%d)" row col
           copy)
  | Some i ->
      t.weight_writes <- t.weight_writes + t.n_lanes;
      let out = t.d.insts.(i).outs.(0) in
      for w = 0 to t.words - 1 do
        let v = word_of w land t.masks.(w) in
        let idx = (i * t.words) + w in
        let old = t.storage_state.(idx) in
        if old <> v then begin
          t.storage_state.(idx) <- v;
          t.weight_flips <- t.weight_flips + Intmath.popcount (old lxor v)
        end;
        set_net_word t out w v
      done

(** [set_weight_lanes t ~row ~col ~copy bits] writes one SRAM weight bit
    per lane through its (row, col, copy) address: [bits.(l)] is lane
    [l]'s bit. Lanes beyond [Array.length bits] store [false]. *)
let set_weight_lanes t ~row ~col ~copy (bits : bool array) =
  let n = min (Array.length bits) t.n_lanes in
  write_weight t ~row ~col ~copy (fun w ->
      let lo = w * word_lanes in
      let v = ref 0 in
      for l = lo to min n (lo + word_lanes) - 1 do
        if bits.(l) then v := !v lor (1 lsl (l - lo))
      done;
      !v)

(** [set_weight_all t ~row ~col ~copy bit] — the broadcast form: every
    lane stores the same [bit]. *)
let set_weight_all t ~row ~col ~copy bit =
  write_weight t ~row ~col ~copy (fun w ->
      if bit then t.masks.(w) else 0)

(** [eval t] settles all combinational logic, all lanes at once: one
    {!Cell.eval_word_into} per instance per word. Complemented cell
    outputs may carry set bits above the active lanes (see {!Cell}), so
    commits mask per word. A one-word slice takes its own loop: with no
    word index to scale, every net read and commit is a direct array
    access. *)
let eval t =
  let d = t.d in
  let ins_buf = t.scratch_ins and outs_buf = t.scratch_outs in
  let values = t.values in
  let words = t.words in
  if words = 1 then begin
    let mask = t.masks.(0) and toggles = t.toggles in
    Array.iter
      (fun i ->
        let inst = d.insts.(i) in
        let ins = inst.Ir.ins in
        for p = 0 to Array.length ins - 1 do
          ins_buf.(p) <- values.(ins.(p))
        done;
        Cell.eval_word_into inst.Ir.kind ins_buf outs_buf;
        let outs = inst.Ir.outs in
        for o = 0 to Array.length outs - 1 do
          let net = outs.(o) in
          let v = outs_buf.(o) land mask in
          let old = values.(net) in
          if old <> v then begin
            values.(net) <- v;
            toggles.(net) <- toggles.(net) + Intmath.popcount (old lxor v)
          end
        done)
      d.comb_order
  end
  else
    Array.iter
      (fun i ->
        let inst = d.insts.(i) in
        let ins = inst.Ir.ins in
        let outs = inst.Ir.outs in
        let n_ins = Array.length ins and n_outs = Array.length outs in
        for w = 0 to words - 1 do
          for p = 0 to n_ins - 1 do
            ins_buf.(p) <- values.((ins.(p) * words) + w)
          done;
          Cell.eval_word_into inst.Ir.kind ins_buf outs_buf;
          for o = 0 to n_outs - 1 do
            set_net_word t outs.(o) w outs_buf.(o)
          done
        done)
      d.comb_order

(** [clock t] commits every flip-flop in every lane of every word: a
    plain DFF captures D, an enabled DFF captures D lane-wise where EN is
    high and holds elsewhere. Enabled-cycle accounting advances by the
    popcount of each enable word, the lane-summed duty the power model
    charges. Like {!eval}, a one-word slice takes its own loop. *)
let clock t =
  let d = t.d in
  let next = t.seq_next in
  let values = t.values and seq_state = t.seq_state in
  let words = t.words in
  if words = 1 then begin
    Array.iteri
      (fun idx i ->
        let inst = d.insts.(i) in
        next.(idx) <-
          (match inst.kind with
          | Cell.Dff -> values.(inst.ins.(0))
          | Cell.Dff_en ->
              let en = values.(inst.ins.(1)) in
              if en <> 0 then
                t.en_cycles.(i) <- t.en_cycles.(i) + Intmath.popcount en;
              (en land values.(inst.ins.(0))) lor (lnot en land seq_state.(i))
          | _ -> assert false))
      d.seq;
    let mask = t.masks.(0) and toggles = t.toggles in
    Array.iteri
      (fun idx i ->
        let v = next.(idx) land mask in
        seq_state.(i) <- v;
        let net = d.insts.(i).outs.(0) in
        let old = values.(net) in
        if old <> v then begin
          values.(net) <- v;
          toggles.(net) <- toggles.(net) + Intmath.popcount (old lxor v)
        end)
      d.seq
  end
  else begin
    Array.iteri
      (fun idx i ->
        let inst = d.insts.(i) in
        for w = 0 to words - 1 do
          next.((idx * words) + w) <-
            (match inst.kind with
            | Cell.Dff -> values.((inst.ins.(0) * words) + w)
            | Cell.Dff_en ->
                let en = values.((inst.ins.(1) * words) + w) in
                if en <> 0 then
                  t.en_cycles.(i) <- t.en_cycles.(i) + Intmath.popcount en;
                (en land values.((inst.ins.(0) * words) + w))
                lor (lnot en land seq_state.((i * words) + w))
            | _ -> assert false)
        done)
      d.seq;
    Array.iteri
      (fun idx i ->
        let out = d.insts.(i).outs.(0) in
        for w = 0 to words - 1 do
          let v = next.((idx * words) + w) land t.masks.(w) in
          seq_state.((i * words) + w) <- v;
          set_net_word t out w v
        done)
      d.seq
  end;
  t.cycles <- t.cycles + 1

(** [step t] = eval then clock: one full cycle with inputs already set. *)
let step t =
  eval t;
  clock t

(** [reset_stats t] clears toggle and cycle counters (state is kept). *)
let reset_stats t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  Array.fill t.en_cycles 0 (Array.length t.en_cycles) 0;
  t.cycles <- 0;
  t.weight_flips <- 0;
  t.weight_writes <- 0
