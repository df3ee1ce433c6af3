(* Unit and property tests for the util library. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Intmath ---------------- *)

let test_ceil_log2 () =
  check_int "log2 1" 0 (Intmath.ceil_log2 1);
  check_int "log2 2" 1 (Intmath.ceil_log2 2);
  check_int "log2 3" 2 (Intmath.ceil_log2 3);
  check_int "log2 64" 6 (Intmath.ceil_log2 64);
  check_int "log2 65" 7 (Intmath.ceil_log2 65)

let test_floor_log2 () =
  check_int "floor 1" 0 (Intmath.floor_log2 1);
  check_int "floor 3" 1 (Intmath.floor_log2 3);
  check_int "floor 64" 6 (Intmath.floor_log2 64);
  check_int "floor 127" 6 (Intmath.floor_log2 127)

let test_pow2 () =
  check_int "2^0" 1 (Intmath.pow2 0);
  check_int "2^10" 1024 (Intmath.pow2 10)

let test_is_pow2 () =
  check_bool "1" true (Intmath.is_pow2 1);
  check_bool "2" true (Intmath.is_pow2 2);
  check_bool "3" false (Intmath.is_pow2 3);
  check_bool "0" false (Intmath.is_pow2 0);
  check_bool "-4" false (Intmath.is_pow2 (-4))

let test_ceil_div () =
  check_int "7/2" 4 (Intmath.ceil_div 7 2);
  check_int "8/2" 4 (Intmath.ceil_div 8 2);
  check_int "0/5" 0 (Intmath.ceil_div 0 5)

let test_clamp () =
  check_int "below" 2 (Intmath.clamp ~lo:2 ~hi:8 0);
  check_int "above" 8 (Intmath.clamp ~lo:2 ~hi:8 99);
  check_int "inside" 5 (Intmath.clamp ~lo:2 ~hi:8 5)

let test_sign_extend () =
  check_int "positive" 3 (Intmath.sign_extend ~width:4 3);
  check_int "negative" (-1) (Intmath.sign_extend ~width:4 0xF);
  check_int "min" (-8) (Intmath.sign_extend ~width:4 8);
  check_int "wraps high bits" (-1) (Intmath.sign_extend ~width:4 0xFF)

let test_bits_for_unsigned () =
  check_int "0" 1 (Intmath.bits_for_unsigned 0);
  check_int "1" 1 (Intmath.bits_for_unsigned 1);
  check_int "255" 8 (Intmath.bits_for_unsigned 255);
  check_int "256" 9 (Intmath.bits_for_unsigned 256)

let prop_sign_extend_roundtrip =
  QCheck.Test.make ~name:"sign_extend inverts truncate_bits"
    QCheck.(pair (int_range 1 20) (int_range (-100000) 100000))
    (fun (w, v) ->
      QCheck.assume (v >= -Intmath.pow2 (w - 1) && v < Intmath.pow2 (w - 1));
      Intmath.sign_extend ~width:w (Intmath.truncate_bits ~width:w v) = v)

let prop_ceil_log2_bound =
  QCheck.Test.make ~name:"ceil_log2 bounds" QCheck.(int_range 1 1000000)
    (fun n ->
      let k = Intmath.ceil_log2 n in
      Intmath.pow2 k >= n && (k = 0 || Intmath.pow2 (k - 1) < n))

(* ---------------- Pareto ---------------- *)

let test_dominates () =
  check_bool "strict" true (Pareto.dominates [| 1.; 1. |] [| 2.; 2. |]);
  check_bool "partial" false (Pareto.dominates [| 1.; 3. |] [| 2.; 2. |]);
  check_bool "equal" false (Pareto.dominates [| 1.; 1. |] [| 1.; 1. |]);
  check_bool "one-better" true (Pareto.dominates [| 1.; 2. |] [| 1.; 3. |])

let test_frontier () =
  let pts = [ (1., 5.); (2., 2.); (5., 1.); (3., 3.); (6., 6.) ] in
  let objectives (a, b) = [| a; b |] in
  let f = Pareto.frontier ~objectives pts in
  check_int "frontier size" 3 (List.length f);
  check_bool "dominated point removed" false (List.mem (3., 3.) f);
  check_bool "corner kept" true (List.mem (1., 5.) f)

let prop_frontier_sound =
  (* no frontier member is dominated by any input point *)
  QCheck.Test.make ~name:"frontier members undominated"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30)
              (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun pts ->
      let objectives (a, b) = [| a; b |] in
      let f = Pareto.frontier ~objectives pts in
      List.for_all
        (fun m ->
          not
            (List.exists
               (fun p -> Pareto.dominates (objectives p) (objectives m))
               pts))
        f)

(* ---------------- Vec ---------------- *)

let test_vec_push_get () =
  let v = Vec.create 0 in
  for i = 0 to 999 do
    Alcotest.(check int) "push index" i (Vec.push v (i * 2))
  done;
  check_int "length" 1000 (Vec.length v);
  check_int "get" 84 (Vec.get v 42);
  Vec.set v 42 7;
  check_int "set" 7 (Vec.get v 42);
  let arr = Vec.to_array v in
  check_int "to_array length" 1000 (Array.length arr);
  check_int "to_array content" 7 arr.(42)

let test_vec_iter () =
  let v = Vec.create 0 in
  List.iter (fun x -> ignore (Vec.push v x)) [ 1; 2; 3 ];
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  check_int "iter sum" 6 !sum;
  let isum = ref 0 in
  Vec.iteri (fun i x -> isum := !isum + (i * x)) v;
  check_int "iteri weighted" 8 !isum

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_signed_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let v = Rng.signed rng ~width:4 in
    check_bool "in range" true (v >= -8 && v < 8)
  done

let test_rng_sparse () =
  let rng = Rng.create 11 in
  let zeros = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    if Rng.sparse_signed rng ~width:8 ~density:0.125 = 0 then incr zeros
  done;
  let frac = float_of_int !zeros /. float_of_int n in
  check_bool "sparsity near 87.5%" true (frac > 0.82 && frac < 0.92)

(* ---------------- Pool ---------------- *)

let test_pool_ordering () =
  let xs = List.init 100 (fun i -> i) in
  let expected = List.map (fun i -> i * i) xs in
  Alcotest.(check (list int))
    "jobs=4 preserves input order" expected
    (Pool.parallel_map ~jobs:4 (fun i -> i * i) xs);
  Alcotest.(check (list int))
    "jobs=1 sequential fallback" expected
    (Pool.parallel_map ~jobs:1 (fun i -> i * i) xs)

let test_pool_exception () =
  Alcotest.check_raises "worker exception propagates" (Failure "boom")
    (fun () ->
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i = 13 then failwith "boom" else i)
           (List.init 50 (fun i -> i))))

let test_pool_nested () =
  (* a parallel_map inside a worker degrades to sequential, not deadlock *)
  let outer =
    Pool.parallel_map ~jobs:2
      (fun i ->
        Pool.parallel_map ~jobs:4 (fun j -> (i * 10) + j) [ 0; 1; 2 ])
      [ 1; 2 ]
  in
  Alcotest.(check (list (list int)))
    "nested result" [ [ 10; 11; 12 ]; [ 20; 21; 22 ] ] outer

let test_pool_empty_and_single () =
  Alcotest.(check (list int)) "empty" []
    (Pool.parallel_map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int)) "singleton" [ 42 ]
    (Pool.parallel_map ~jobs:4 (fun i -> i) [ 42 ])

(* ---------------- Memo ---------------- *)

(* [race n f] — run [f] on [n] fresh domains released together, in
   domain order. *)
let race n f =
  let ready = Atomic.make 0 in
  let spawn _ =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < n do
          Domain.cpu_relax ()
        done;
        f ())
  in
  List.map Domain.join (List.init n spawn)

let memo_counters () =
  let r = Metrics.create () in
  (Metrics.counter ~registry:r "t.hits", Metrics.counter ~registry:r "t.misses")

let test_memo_single_flight () =
  let hits, misses = memo_counters () in
  let t = Memo.create ~hits ~misses () in
  let computed = Atomic.make 0 in
  let slow () =
    Atomic.incr computed;
    Unix.sleepf 0.05;
    ref 42
  in
  let got = race 4 (fun () -> Memo.find_or_add t "k" slow) in
  check_int "one computation" 1 (Atomic.get computed);
  List.iter
    (fun v -> check_bool "every caller gets the one value" true (v == List.hd got))
    got;
  check_int "one miss" 1 (Memo.misses t);
  check_int "three hits" 3 (Memo.hits t);
  check_int "registered misses" 1 (Metrics.counter_value misses);
  check_int "registered hits" 3 (Metrics.counter_value hits);
  check_int "one ready key" 1 (Memo.length t)

exception Boom

let test_memo_exception () =
  let hits, misses = memo_counters () in
  let t = Memo.create ~hits ~misses () in
  Alcotest.check_raises "failure re-raised" Boom (fun () ->
      ignore (Memo.find_or_add t "k" (fun () -> raise Boom)));
  check_int "nothing cached" 0 (Memo.length t);
  check_int "a later call recomputes" 7 (Memo.find_or_add t "k" (fun () -> 7));
  check_int "two misses" 2 (Memo.misses t);
  (* a caller waiting on a computation that fails retries instead of
     hanging: it computes the key itself *)
  let started = Atomic.make false and retried = Atomic.make 0 in
  let failing () =
    Atomic.set started true;
    Unix.sleepf 0.05;
    raise Boom
  in
  let waiter () =
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    Memo.find_or_add t "w" (fun () ->
        Atomic.incr retried;
        1)
  in
  let d = Domain.spawn waiter in
  Alcotest.check_raises "computing caller gets the failure" Boom (fun () ->
      ignore (Memo.find_or_add t "w" failing));
  check_int "waiter computed after the failure" 1 (Domain.join d);
  check_int "waiter computed once" 1 (Atomic.get retried);
  check_int "stored after the retry" 1 (Memo.find_or_add t "w" (fun () -> 2))

let test_memo_replace () =
  let hits, misses = memo_counters () in
  let t = Memo.create ~hits ~misses () in
  Memo.replace t "a" 1;
  Memo.replace t "a" 2;
  check_int "replace overwrites" 2 (Memo.find_or_add t "a" (fun () -> 3));
  check_int "replace counts nothing" 0 (Memo.misses t);
  check_int "a replaced key hits" 1 (Memo.hits t);
  check_bool "bindings" true (Memo.bindings t = [ ("a", 2) ])

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t = Table.make ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let s = Table.render t in
  check_bool "has header" true (String.length s > 0);
  (* all lines equal length *)
  let lines = String.split_on_char '\n' s in
  let lens = List.map String.length lines in
  check_bool "aligned" true
    (List.for_all (fun l -> l = List.hd lens) lens)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sign_extend_roundtrip; prop_ceil_log2_bound; prop_frontier_sound ]

let () =
  Alcotest.run "util"
    [
      ( "intmath",
        [
          Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
          Alcotest.test_case "floor_log2" `Quick test_floor_log2;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "is_pow2" `Quick test_is_pow2;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "sign_extend" `Quick test_sign_extend;
          Alcotest.test_case "bits_for_unsigned" `Quick test_bits_for_unsigned;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "frontier" `Quick test_frontier;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "iter" `Quick test_vec_iter;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "signed range" `Quick test_rng_signed_range;
          Alcotest.test_case "sparsity" `Quick test_rng_sparse;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "nested sequentializes" `Quick test_pool_nested;
          Alcotest.test_case "empty/singleton" `Quick
            test_pool_empty_and_single;
        ] );
      ( "memo",
        [
          Alcotest.test_case "single flight" `Quick test_memo_single_flight;
          Alcotest.test_case "exception" `Quick test_memo_exception;
          Alcotest.test_case "replace" `Quick test_memo_replace;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ("properties", qtests);
    ]
