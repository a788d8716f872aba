(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into each
   layer's public functions; nothing inside the library is traced.  A
   span keeps its name, start and end (microseconds), the id of the
   span that caused it and the id of the request it belongs to.  The
   recorder only appends to a list, and the list is written out once,
   when the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a request's root span *)
  req : int;
  name : string;
  start_us : float;
  stop_us : float;
}

type t = { mutable spans : span list; mutable next_id : int; mutable stack : int list }

let create () = { spans = []; next_id = 0; stack = [] }

let now_us () = 1e6 *. Unix.gettimeofday ()

(* Run [f] inside a span named [name] of request [req]; the enclosing
   open span, if any, is its parent. *)
let record t ~req name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_us = now_us () in
  let finish () =
    let stop_us = now_us () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; req; name; start_us; stop_us } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans

let duration s = s.stop_us -. s.start_us

(* Durations of every span called [name], in recording order. *)
let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) (spans t)

(* A span's duration minus the part its direct children cover. *)
let self_times t name =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (duration s)) t.spans;
  List.filter_map
    (fun s ->
      if s.name <> name then None
      else
        let covered = List.fold_left ( +. ) 0. (Hashtbl.find_all children s.id) in
        Some (duration s -. covered))
    (spans t)

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"req":%d,"name":"%s","start_us":%.1f,"end_us":%.1f}|} s.id
    s.parent s.req s.name s.start_us s.stop_us

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (to_json_line s);
          output_char oc '\n')
        (spans t))
