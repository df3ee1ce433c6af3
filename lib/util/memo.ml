(** A keyed, concurrent, single-flight memo table, behind the subcircuit
    library ({!Scl}) and the design-point and netlist caches
    ({!Eval_cache}).

    A key's slot is [Pending] while one caller computes it, outside the
    table's mutex, and [Ready v] after; callers that find it pending wait
    on the table's condition variable. A key is thus computed once however
    many domains race it, every caller gets the same (physically equal)
    value, and distinct keys compute in parallel.

    A {e miss} is the caller that computed; every other caller, waiters
    included, is a {e hit}. So a table's misses are its distinct keys
    whatever the domain count. Both count into {!Metrics.scoped} views of
    the counters given to {!create}.

    A computation that raises clears its slot, wakes the waiters (they
    retry, so one of them computes next) and re-raises to its caller. It
    must not ask its own table for its own key. *)

type 'v slot = Pending | Ready of 'v

type ('k, 'v) t = {
  lock : Mutex.t;  (** guards [slots] *)
  settled : Condition.t;  (** broadcast whenever a pending slot settles *)
  slots : ('k, 'v slot) Hashtbl.t;
  hits : Metrics.counter;
  misses : Metrics.counter;
}

let create ~hits ~misses () =
  {
    lock = Mutex.create ();
    settled = Condition.create ();
    slots = Hashtbl.create 64;
    hits = Metrics.scoped hits;
    misses = Metrics.scoped misses;
  }

(* Under the lock: [Some v] for a ready key, [None] once this caller has
   claimed a cold one. *)
let rec claim t k =
  match Hashtbl.find_opt t.slots k with
  | Some (Ready v) -> Some v
  | Some Pending ->
      Condition.wait t.settled t.lock;
      claim t k
  | None ->
      Hashtbl.replace t.slots k Pending;
      None

(** [find_or_add t k f] — [k]'s value: [f ()] on the first call for [k]
    (a miss), the stored value on every other (a hit). *)
let find_or_add t k f =
  match Mutex.protect t.lock (fun () -> claim t k) with
  | Some v ->
      Metrics.incr t.hits;
      v
  | None -> (
      Metrics.incr t.misses;
      let r =
        try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.protect t.lock (fun () ->
          (match r with
          | Ok v -> Hashtbl.replace t.slots k (Ready v)
          | Error _ -> Hashtbl.remove t.slots k);
          Condition.broadcast t.settled);
      match r with
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

(** [replace t k v] — bind [k] to [v] without counting; a key some caller
    is computing is left to that caller. *)
let replace t k v =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.slots k with
      | Some Pending -> ()
      | Some (Ready _) | None -> Hashtbl.replace t.slots k (Ready v))

(** [bindings t] — the ready bindings, in no particular order. *)
let bindings t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun k s acc -> match s with Ready v -> (k, v) :: acc | Pending -> acc)
        t.slots [])

let length t = List.length (bindings t)
let hits t = Metrics.counter_value t.hits
let misses t = Metrics.counter_value t.misses
