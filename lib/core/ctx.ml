(** The execution context: one immutable value bundling everything a
    compilation needs beyond its {!Spec.t} — the characterized cell
    library, the shared subcircuit-library memo, the domain-pool width,
    the persistent compile cache and the SCL LUT persistence path.

    Every layer threads a [Ctx.t]: {!Pipeline.run}, {!Batch.run}, the
    {!Service} facade, the seven [Eval] harnesses and the [Verify]
    campaign stack all take a context instead of hand-assembled
    [lib]/[scl]/[?jobs]/[?cache] arguments, and none of them overrides
    the context's pool width or compile cache for one call ({!Batch.run},
    [Campaign.run] and [Metamorph.check_moves] keep a [?jobs]; see
    DESIGN.md). A compile's only inputs are its spec and its context:
    placement style and retry policy are fixed. What else a call can
    vary (trace sink, seed, simulation engine of a leaf checker) is a
    per-call argument with a literal default, so constructing two
    contexts is all it takes to run two corners — or two tenants — side
    by side.

    {2 Ownership rules}

    - [lib] and [scl] are shared and safe to share: the library's
      characterization is immutable after {!Library.n40} builds it (its
      only later write is the atomic, set-once fingerprint memo that
      {!Disk_cache.library_fingerprint} fills), and the SCL memo is
      a single-flight {!Memo} ({!Scl.memo}), so any number of domains —
      and any number of contexts built over the same pair — may compile
      concurrently. {!default} returns contexts over one process-wide
      memoized pair; {!fresh} builds an isolated pair (first compile
      re-characterizes).
    - [cache] (the persistent compile cache) is append-only,
      content-addressed and crash-safe ({!Disk_cache}); sharing one root
      across contexts and processes is the intended mode.
    - Netlists are {e not} part of the context and are never cached by
      it: an ECO pass mutates cell drives in place ({!Sizing.speed_up}),
      so a [Macro_rtl.t] belongs to exactly one compilation. Only
      metrics-level summaries enter the compile cache. *)

type t = {
  lib : Library.t;  (** the characterized cell library (immutable) *)
  scl : Scl.t;  (** shared subcircuit-library memo (single-flight) *)
  jobs : int option;
      (** domain-pool width; [None] = [SYNDCIM_JOBS], then core count *)
  cache : Disk_cache.t option;  (** persistent compile cache, if open *)
  scl_cache : string option;
      (** CSV path for SCL LUT persistence ({!load_scl}/{!save_scl}) *)
}

(* The process-wide library + SCL pair behind [default ()]. Mutex-guarded
   rather than [lazy] because two domains may race the first call. *)
let shared_world : (Library.t * Scl.t) option ref = ref None
let shared_lock = Mutex.create ()

let shared_pair () =
  Mutex.protect shared_lock (fun () ->
      match !shared_world with
      | Some pair -> pair
      | None ->
          let lib = Library.n40 () in
          let pair = (lib, Scl.create lib) in
          shared_world := Some pair;
          pair)

let make (lib, scl) = { lib; scl; jobs = None; cache = None; scl_cache = None }

(** [default ()] — a context over the process-wide shared library and
    SCL memo: every [default] context reuses the same characterization
    work. This is what the CLI, bench and examples construct. *)
let default () = make (shared_pair ())

(** [fresh ()] — a context over a brand-new library and empty SCL memo,
    isolated from every other context (first compile re-characterizes).
    For tests that must observe cold-memo behaviour, and for tenants
    that need hard isolation. *)
let fresh () =
  let lib = Library.n40 () in
  make (lib, Scl.create lib)

(** [of_parts lib scl] — wrap an existing pair (e.g. a test that built
    its own library) in a context. *)
let of_parts lib scl = make (lib, scl)

(* ---------------- accessors ---------------- *)

let lib t = t.lib
let scl t = t.scl
let jobs t = t.jobs
let cache t = t.cache

(** [verify_engine _] — always [`Packed], the engine every sign-off and
    differential check runs on. Kept for the benchmark harness, which
    reads it (and still matches a second name, hence the open type);
    the leaf checkers take their own [?engine]. *)
let verify_engine (_ : t) : [> `Packed ] = `Packed

(* ---------------- builders ---------------- *)

(** [with_jobs j t] — pin the domain-pool width. Raises
    [Invalid_argument] on [j < 1]; CLI layers validate first
    ({!validate_jobs}). *)
let with_jobs j t =
  if j < 1 then invalid_arg "Ctx.with_jobs: jobs must be >= 1";
  { t with jobs = Some j }

(** [validate_jobs j] — the CLI-facing check: [--jobs 0] is a user
    error carried as a diagnostic, not an exception. *)
let validate_jobs (j : int) : (int, Diag.t) Stdlib.result =
  if j >= 1 then Ok j
  else
    Error
      (Diag.error ~stage:"ctx"
         ~payload:[ ("jobs", string_of_int j) ]
         "jobs must be >= 1")

(** [with_cache_dir dir t] — open (creating if missing) a persistent
    compile cache under [dir] and attach it. The error is a one-line
    diagnostic, as the CLI reports it. *)
let with_cache_dir dir t : (t, Diag.t) Stdlib.result =
  match Disk_cache.open_root dir with
  | Ok c -> Ok { t with cache = Some c }
  | Error msg ->
      Error (Diag.error ~stage:"ctx" ~payload:[ ("cache-dir", dir) ] msg)

let with_scl_cache path t = { t with scl_cache = Some path }

(* ---------------- SCL LUT persistence ---------------- *)

(* files read by {!load_scl}: one per run that names a LUT *)
let m_scl_lut_loads = Metrics.counter "scl.lut_loads"

(** [load_scl t] — merge the persisted SCL LUT into the shared memo, if
    the context names a CSV that exists. Returns the number of entries
    loaded (0 when no path is set or the file is absent — a cold first
    run is not an error). A malformed or unreadable file is a one-line
    diagnostic and merges nothing ({!Persist.load}). *)
let load_scl t : (int, Diag.t) Stdlib.result =
  match t.scl_cache with
  | Some path when Sys.file_exists path -> (
      Metrics.incr m_scl_lut_loads;
      let fail msg =
        Error (Diag.error ~stage:"ctx" ~payload:[ ("scl-cache", path) ] msg)
      in
      match Persist.load t.scl path with
      | n -> Ok n
      | exception Persist.Bad_format line ->
          fail ("malformed SCL LUT line: " ^ line)
      | exception Sys_error msg -> fail msg)
  | Some _ | None -> Ok 0

(** [save_scl t] — persist the shared memo to the context's CSV, if a
    path is set. Returns the entry count written ([None] when no path
    is configured); an unwritable path is a one-line diagnostic. *)
let save_scl t : (int option, Diag.t) Stdlib.result =
  match t.scl_cache with
  | Some path -> (
      match Persist.save t.scl path with
      | () -> Ok (Some (Scl.entries t.scl))
      | exception Sys_error msg ->
          Error
            (Diag.error ~stage:"ctx" ~payload:[ ("scl-cache", path) ]
               ("cannot write " ^ msg)))
  | None -> Ok None
