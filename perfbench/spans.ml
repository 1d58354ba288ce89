(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name ("layer.what"), start
   and end on the monotonic clock, the span that was open when it started,
   and the id of the unit it belongs to (one Table-1 iteration, one
   program or one round). Spans are only recorded while [enabled] is set;
   otherwise [span] just calls its function. They are written out when the
   benchmark ends. *)

type t = {
  id : int;
  name : string;
  unit_id : int;
  parent : int; (* -1 for a root span *)
  start_ns : int;
  mutable stop_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false

let recorded : t list ref = ref [] (* newest first *)

let next_id = ref 0

let open_stack : int list ref = ref []

let current_unit = ref 0

let next_unit = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; unit_id = !current_unit; parent; start_ns = now_ns (); stop_ns = 0 } in
    recorded := s :: !recorded;
    open_stack := id :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        open_stack := List.tl !open_stack)
      f
  end

(* [unit name f] runs [f] as a fresh unit whose spans share one id. *)
let unit name f =
  incr next_unit;
  let saved = !current_unit in
  current_unit := !next_unit;
  Fun.protect ~finally:(fun () -> current_unit := saved) (fun () -> span name f)

let all () = List.rev !recorded

let duration s = s.stop_ns - s.start_ns

let layer s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

(* Durations in ms of every span called [name], in recording order. *)
let durations_ms name =
  List.filter_map
    (fun s -> if s.name = name then Some (float_of_int (duration s) /. 1e6) else None)
    (all ())

(* Self time per layer (span time minus the time its child spans cover)
   and the total time of root spans, in ns. *)
let self_times () =
  let spans = all () in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s + Option.value (Hashtbl.find_opt child_time s.parent) ~default:0))
    spans;
  let by_layer = Hashtbl.create 16 in
  let total = ref 0 in
  List.iter
    (fun s ->
      let self = duration s - Option.value (Hashtbl.find_opt child_time s.id) ~default:0 in
      Hashtbl.replace by_layer (layer s)
        (self + Option.value (Hashtbl.find_opt by_layer (layer s)) ~default:0);
      if s.parent < 0 then total := !total + duration s)
    spans;
  (by_layer, !total)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"unit\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n" s.id
        s.name s.unit_id s.parent s.start_ns s.stop_ns)
    (all ());
  close_out oc
