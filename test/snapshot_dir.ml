(* The committed snapshot directory: [dune runtest] runs the suites with
   cwd = _build/default/test, a direct run of a test binary is usually
   from the project root — accept either. *)
let dir =
  if Sys.file_exists "snapshots" then "snapshots"
  else Filename.concat "test" "snapshots"

let path name = Filename.concat dir name
