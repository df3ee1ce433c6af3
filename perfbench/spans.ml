(* In-memory spans of the traced run, written out as Chrome trace-event
   JSON (chrome://tracing, Perfetto) when the run ends.

   Spans nest by time on one track ([tid]): the workload span holds the
   operation spans (a compile, a batch, a request, a campaign job), and
   those hold the pipeline-stage spans rebuilt from the program's own
   {!Trace} rows. A buffer is not shared across domains: each client keeps
   its own and the buffers are concatenated at the end. *)

type span = {
  name : string;
  cat : string;
  tid : int;
  start : float;  (** absolute, seconds *)
  dur : float;  (** seconds *)
  args : (string * string) list;
}

type t = { mutable spans : span list; mutable count : int }

let create () = { spans = []; count = 0 }

let add t ?(args = []) ~cat ~tid ~start ~dur name =
  t.spans <- { name; cat; tid; start; dur; args } :: t.spans;
  t.count <- t.count + 1

(* The program records a stage's duration but not its start, and stages
   run back to back, so each row is laid end to end from the start of the
   operation that ran it. Whatever is left of the operation after the last
   row is time no stage accounts for. *)
let add_rows t ~tid ~start (rows : Trace.row list) =
  ignore
    (List.fold_left
       (fun at (r : Trace.row) ->
         let dur = r.Trace.wall_ms /. 1e3 in
         add t ~cat:"stage" ~tid ~start:at ~dur
           ~args:[ ("note", r.Trace.note) ]
           r.Trace.stage;
         at +. dur)
       start rows)

let count t = t.count
let merge ts =
  {
    spans = List.concat_map (fun t -> t.spans) ts;
    count = List.fold_left (fun n t -> n + t.count) 0 ts;
  }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [write t ~origin path] writes every span, timestamps in microseconds
   from [origin]. *)
let write t ~origin path =
  let spans =
    List.sort (fun a b -> Float.compare a.start b.start) t.spans
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": \
             %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}"
            (json_string s.name) (json_string s.cat) s.tid
            ((s.start -. origin) *. 1e6)
            (s.dur *. 1e6)
            (String.concat ", "
               (List.map
                  (fun (k, v) -> json_string k ^ ": " ^ json_string v)
                  s.args)))
        spans;
      output_string oc "\n]}\n")

(* Cost of recording one span, measured on a scratch buffer: the traced
   run multiplies it by the spans it recorded to price its own tracing. *)
let cost_per_span () =
  let scratch = create () in
  let n = 20_000 in
  let (), dt =
    Timing.timed (fun () ->
        for i = 1 to n do
          add scratch ~cat:"probe" ~tid:0 ~start:(float_of_int i) ~dur:1.0
            "probe"
        done)
  in
  dt /. float_of_int n
