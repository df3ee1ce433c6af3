(* Clocks, sample statistics and process memory for the benchmark. *)

let now = Unix.gettimeofday

(* [timed f] runs [f] and returns its result with its wall time in
   seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Resolution of [now]: gettimeofday reads whole microseconds. *)
let tick = 1e-6

(* Quantile ([q] in 0..1) of a sample of durations in seconds; 0 for an
   empty one. Each duration is counted in whole clock ticks and stands for
   the tick around it, so a quantile that falls among equal readings
   (common for latencies of tens of microseconds) is interpolated within
   the tick instead of sticking to one reading. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.map (fun x -> Float.round (x /. tick)) xs in
    Array.sort Float.compare s;
    let rank = q *. float_of_int n in
    let i = min (n - 1) (int_of_float rank) in
    let lo = ref i and hi = ref i in
    while !lo > 0 && s.(!lo - 1) = s.(i) do decr lo done;
    while !hi < n - 1 && s.(!hi + 1) = s.(i) do incr hi done;
    let within = (rank -. float_of_int !lo) /. float_of_int (!hi - !lo + 1) in
    (s.(i) -. 0.5 +. within) *. tick
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

(* Geometric mean of positive values; 0 for an empty sample. *)
let geomean xs =
  if Array.length xs = 0 then 0.0
  else exp (mean (Array.map log xs))

(* [ratio a b] is [a /. b], or 0 when nothing was measured. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process in MB (VmHWM). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line -> (
            match String.split_on_char ':' line with
            | [ "VmHWM"; rest ] ->
                Scanf.sscanf (String.trim rest) "%f kB" (fun kb -> kb /. 1024.0)
            | _ -> scan ())
      in
      scan ())

(* A growable float sample, one per producer (not shared across
   domains). *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len
