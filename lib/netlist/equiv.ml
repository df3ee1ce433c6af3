(** Random-vector combinational/sequential equivalence checking between
    two designs with the same I/O interface.

    The searcher's retiming and fusion moves must never change what a
    macro computes; this checker drives both designs with the same random
    input sequences and compares every output bus on every cycle of a
    hold window after both pipelines have drained — the light-weight
    formal-equivalence stand-in the test suite uses to cross-check
    structurally different configurations of the same spec. *)

type verdict =
  | Equivalent of int  (** number of vectors checked *)
  | Mismatch of {
      vector : int;
      cycle : int;  (** cycles after the vector was applied *)
      bus : string;
      a : int;
      b : int;
    }

let bus_names d = List.map fst (Ir.outputs d.Ir.src)

let interfaces_match (a : Ir.design) (b : Ir.design) =
  let sig_of d =
    ( List.map (fun (n, bus) -> (n, Array.length bus)) (Ir.inputs d.Ir.src),
      List.map (fun (n, bus) -> (n, Array.length bus)) (Ir.outputs d.Ir.src) )
  in
  sig_of a = sig_of b

(* Per-round input values, drawn in round order with a fixed per-bus
   order, so every slice consumes one identical RNG stream. *)
let draw_round rng (a : Ir.design) =
  List.map
    (fun (name, bus) ->
      (name, Rng.int rng (Intmath.pow2 (min (Array.length bus) 30))))
    (Ir.inputs a.Ir.src)

(** [check ~seed ~vectors ~settle ~hold a b] drives both designs with
    identical random inputs for [vectors] rounds of [settle + hold] cycles
    each. Designs must have identical input/output bus signatures.
    [settle] covers pipeline-depth differences up to that many cycles —
    the drain window during which outputs are allowed to disagree while
    the deeper pipeline catches up. After the drain, outputs are compared
    on *every* cycle of the [hold] window (inputs stay stable), not only
    once at the end of the round: a retiming bug that produces a
    single-cycle glitch between sample points cannot slip through the
    comparison grid.

    [slice] is the simulation backend, {!Slice.Packed} by default:
    vectors become lanes. Each chunk of up to [E.max_lanes] vectors (63
    for the packed slice) runs on a fresh simulator pair with every lane
    starting from reset, so rounds are independent — no cross-round
    state leakage. Vectors are drawn in
    round order from one RNG stream, so the verdict does not depend on
    the chunk width, and mismatches are reported lowest vector first,
    then lowest cycle, then output-bus declaration order. *)
let check ?(slice : (module Slice.S) = (module Slice.Packed)) ?(seed = 0xE9)
    ?(vectors = 24) ?(settle = 8) ?(hold = 4) (a : Ir.design) (b : Ir.design)
    : verdict =
  if not (interfaces_match a b) then
    invalid_arg "Equiv.check: interface mismatch";
  if settle < 1 || hold < 0 then
    invalid_arg "Equiv.check: settle must be >= 1 and hold >= 0";
  let module E = (val slice) in
  let rng = Rng.create seed in
  let outputs = bus_names a in
  let rec chunks start =
    if start >= vectors then Equivalent vectors
    else begin
      let n = min E.max_lanes (vectors - start) in
      let rounds = Array.init n (fun _ -> draw_round rng a) in
      let sa = E.create ~n_lanes:n a and sb = E.create ~n_lanes:n b in
      List.iter
        (fun (name, _) ->
          let vs = Array.map (fun values -> List.assoc name values) rounds in
          E.set_bus_lanes sa name vs;
          E.set_bus_lanes sb name vs)
        (Ir.inputs a.Ir.src);
      for _ = 1 to settle do
        E.step sa;
        E.step sb
      done;
      (* record each lane's first mismatch: cycle ascending, buses in
         declaration order, whatever the chunk width *)
      let first = Array.make n None in
      for cycle = settle to settle + hold do
        E.eval sa;
        E.eval sb;
        List.iter
          (fun bus ->
            for l = 0 to n - 1 do
              if first.(l) = None then begin
                let va = E.read_bus_lane sa bus l
                and vb = E.read_bus_lane sb bus l in
                if va <> vb then first.(l) <- Some (cycle, bus, va, vb)
              end
            done)
          outputs;
        E.step sa;
        E.step sb
      done;
      let rec scan l =
        if l >= n then chunks (start + n)
        else
          match first.(l) with
          | Some (cycle, bus, va, vb) ->
              Mismatch { vector = start + l; cycle; bus; a = va; b = vb }
          | None -> scan (l + 1)
      in
      scan 0
    end
  in
  chunks 0
