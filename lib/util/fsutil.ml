(** Filesystem policy shared by the paths the tools create (the compile
    cache store, the artifact directory), so every entry point refuses a
    bad path the same way, and the one way the tools write a file. *)

(** [ensure_dir ~what dir] — [dir] as an existing or freshly created
    directory. An existing non-directory is an error, and so is a
    missing parent: a typo'd path is a one-line error, not a silently
    created directory tree. [what] names the path in the message. *)
let ensure_dir ~what dir : (unit, string) result =
  let parent = Filename.dirname dir in
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s %s exists and is not a directory" what dir)
  else if Sys.file_exists parent && Sys.is_directory parent then
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error _ when Sys.file_exists dir && Sys.is_directory dir ->
        (* another domain/process created it between the check and the
           mkdir: that is exactly the directory we wanted *)
        Ok ()
    | exception Sys_error msg -> Error msg
  else Error (Printf.sprintf "%s parent %s does not exist" what parent)

(* Distinguishes concurrent writers' temp files within one process. *)
let tmp_seq = Atomic.make 0

(** [write_atomic path text] — write [text] to [path] through a temp file
    in the same directory, then [rename] it over [path]: a reader (or a
    second writer racing on the same path) only ever sees a complete
    file, and a writer killed mid-write leaves the old file and a
    [.tmp-] orphan, never a torn [path]. Raises [Sys_error] on failure,
    after removing the temp file. *)
let write_atomic path text =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp-%s-%d-%d" (Filename.basename path) (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
    Sys.rename tmp path
  with
  | () -> ()
  | exception (Sys_error _ as e) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
