(* Set-up, the closed-loop client and teardown.

   Served workloads talk to [Expfinder_server.serve ~domains:1] running
   in a child process, over one Unix-socket connection: each request is
   sent after the previous reply arrived.  Library workloads call
   [Engine.top_k] and [Engine.evaluate_batch ~domains:1] directly. *)

open Expfinder_core
open Expfinder_incremental
open Expfinder_engine
module Server = Expfinder_server
module Json = Expfinder_telemetry.Json
module Queries = Expfinder_workload.Queries

type reply =
  | Answer of { digest : string; pairs : int; total : bool; provenance : string }
  | Experts of (int * Ranking.rank) list
  | Relations of (Match_relation.t * Engine.provenance) list
      (** a batch's answers, as returned; kept only until timed *)
  | Digests of (string * Engine.provenance) list  (** a batch's answers, as recorded *)
  | Ack

(* [lat_us] is wall-clock time; [cpu_us] the processor time the op took
   in this process and, for served ops, in the server ({!Cpu}). *)
type outcome = { write : bool; lat_us : float; cpu_us : float; reply : (reply, string) result }

type conn = { fd : Unix.file_descr; ic : In_channel.t }

type server = { pid : int; endpoint : Server.endpoint; conn : conn; thread : Cpu.thread }

(* [setup_cpu_s]: processor seconds the set-up took, in both processes. *)
type live = { stream : Stream.t; engine : Engine.t; server : server option; setup_cpu_s : float }

let now_us = Spans.now_us

let provenance_name : Engine.provenance -> string = function
  | From_cache -> "cache"
  | From_compressed -> "compressed"
  | From_index -> "index"
  | Direct -> "direct"

let request_json (s : Stream.t) = function
  | Stream.Query i -> Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str s.texts.(i)) ]
  | Update batch ->
    Json.Obj [ ("op", Json.Str "update"); ("ops", Json.Arr (List.map Update.to_json batch)) ]
  | Top_k _ | Batch _ -> invalid_arg "request_json: not a served op"

let field name conv j = Option.bind (Json.member name j) conv

let bool_opt = function Json.Bool b -> Some b | _ -> None

(* A served reply: [ok: false] (or an unparsable line) is a failure. *)
let reply_of_json ~write = function
  | Error e -> Error ("bad reply: " ^ e)
  | Ok j -> (
    match field "ok" bool_opt j with
    | Some true when write -> Ok Ack
    | Some true -> (
      match
        ( field "digest" Json.str_opt j,
          field "pairs" Json.int_opt j,
          field "total" bool_opt j,
          field "provenance" Json.str_opt j )
      with
      | Some digest, Some pairs, Some total, Some provenance ->
        Ok (Answer { digest; pairs; total; provenance })
      | _ -> Error "reply lacks answer fields")
    | _ -> Error (Option.value (field "error" Json.str_opt j) ~default:"reply not ok"))

(* The driving connection keeps one buffered reader for its lifetime:
   the server answers each request with exactly one line. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd }

let request conn json =
  let line = Bytes.of_string (Json.to_string json ^ "\n") in
  let rec send off =
    if off < Bytes.length line then send (off + Unix.write conn.fd line off (Bytes.length line - off))
  in
  send 0;
  match In_channel.input_line conn.ic with
  | None -> Error "connection closed before a response arrived"
  | Some reply -> Json.of_string reply

(* The server runs in a child process, not a second domain of this one:
   OCaml 5 stops every domain of a process for each minor collection,
   which couples the client's pauses to the server's; in one process the
   hot-read p90 swung twofold between runs on a busy host. *)
let start_server engine ~socket =
  let endpoint = Server.Unix_socket socket in
  if Sys.file_exists socket then Sys.remove socket;
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      match Server.serve ~sample_period:0.0 ~domains:1 engine endpoint with
      | () -> 0
      | exception _ -> 1
    in
    Unix._exit code
  | pid ->
    let rec await tries =
      match connect socket with
      | conn -> conn
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.sleepf 0.002;
        await (tries - 1)
    in
    match
      let conn = await 5000 in
      match Cpu.open_thread pid with
      | thread -> { pid; endpoint; conn; thread }
      | exception e ->
        Unix.close conn.fd;
        raise e
    with
    | srv -> srv
    | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      raise e

(* VmHWM of a process, in MB ([nan] when unreadable). *)
let peak_rss_mb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
    |> Option.value ~default:Float.nan
  | exception Sys_error _ -> Float.nan

(* Restart this process's VmHWM from its current RSS. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* VmHWM of the process that holds the engine: the server, or this one. *)
let engine_peak_rss_mb live =
  match live.server with
  | Some srv -> peak_rss_mb (string_of_int srv.pid)
  | None -> peak_rss_mb "self"

let stop_server srv =
  (* The one-domain server handles a connection to its end inside the
     accept loop, so the driving connection must close before the
     shutdown request can be read on a new one. *)
  Unix.close srv.conn.fd;
  (match
     Server.with_connection srv.endpoint (fun fd ->
         Server.request fd (Json.Obj [ ("op", Json.Str "shutdown") ]))
   with
  | Ok _ | Error _ -> ());
  ignore (Unix.waitpid [] srv.pid : int * Unix.process_status);
  Cpu.close_thread srv.thread

(* An in-process op; every exception is a failed op, never a lost one. *)
let run_library engine (s : Stream.t) = function
  | Stream.Top_k p -> (
    match Engine.top_k engine s.patterns.(p) ~k:s.config.top_k with
    | experts -> Ok (Experts (List.map (fun (e : Engine.expert) -> (e.node, e.rank)) experts))
    | exception e -> Error (Printexc.to_string e))
  | Batch idx -> (
    let patterns = Array.to_list (Array.map (fun p -> s.patterns.(p)) idx) in
    match Engine.evaluate_batch ~domains:1 engine patterns with
    | answers ->
      Ok (Relations (List.map (fun (a : Engine.answer) -> (a.relation, a.provenance)) answers))
    | exception e -> Error (Printexc.to_string e))
  | Query _ | Update _ -> Error "served op without a server"

(* Everything a run does before timing: build the graph and the engine,
   register queries, build the compressed graph, start the server and
   warm the cache (served: every pool pattern once over the wire;
   library: the stream's warm-up ops). *)
let setup ?(serve = false) (s : Stream.t) ~socket =
  let cpu0 = Cpu.self_us () in
  let c = s.config in
  let engine = Engine.create ~cache_capacity:Stream.cache_capacity (Stream.graph c) in
  if c.compression then Engine.enable_compression ~atoms:Queries.atom_universe engine;
  for i = 0 to c.registered - 1 do
    Engine.register engine s.patterns.(i)
  done;
  Array.iter
    (fun op ->
      match run_library engine s op with Ok _ -> () | Error e -> failwith ("warm-up: " ^ e))
    s.warmup;
  let server =
    if c.served || serve then begin
      let srv = start_server engine ~socket in
      let warm i _ =
        match request srv.conn (request_json s (Stream.Query i)) with
        | Ok _ -> ()
        | Error e -> failwith ("warm-up: " ^ e)
      in
      if c.served then begin
        try Array.iteri warm s.patterns
        with e ->
          stop_server srv;
          raise e
      end;
      Some srv
    end
    else None
  in
  (* The server was forked during set-up: all of its time counts. *)
  let server_cpu = match server with Some srv -> Cpu.settled_us srv.thread | None -> 0. in
  let setup_cpu_s = (Cpu.self_us () -. cpu0 +. server_cpu) /. 1e6 in
  { stream = s; engine; server; setup_cpu_s }

let teardown live = Option.iter stop_server live.server

(* Words allocated (minor plus major heap) and major collections so far
   in the process that holds the engine: the server's, read through its
   [stats] op, for served workloads; this one's otherwise. *)
let gc_counts live =
  match live.server with
  | None ->
    let g = Gc.quick_stat () in
    (g.minor_words +. g.major_words, g.major_collections)
  | Some srv -> (
    let proc =
      match request srv.conn (Json.Obj [ ("op", Json.Str "stats") ]) with
      | Ok j -> Option.value (Json.member "process" j) ~default:Json.Null
      | Error _ -> Json.Null
    in
    let get k = Option.value (field k Json.int_opt proc) ~default:0 in
    ( float_of_int (get "process.minor_words" + get "process.major_words"),
      get "process.gc_major_collections" ))

let layer_of_op = function
  | Stream.Query _ | Update _ -> "server.request"
  | Top_k _ -> "engine.top_k"
  | Batch _ -> "engine.evaluate_batch"

(* Execute one op; every exception is a failed op, never a lost one. *)
let exec live requests i =
  let s = live.stream in
  match (s.ops.(i), live.server) with
  | (Stream.Query _ | Update _), Some srv -> (
    let write = match s.ops.(i) with Update _ -> true | _ -> false in
    match request srv.conn requests.(i) with
    | r -> reply_of_json ~write r
    | exception e -> Error (Printexc.to_string e))
  | op, _ -> run_library live.engine s op

(* The closed loop: ops in stream order until [seconds] have passed or
   the stream ends, with calibration passes ({!Cpu.calibrate}) between
   ops.  Returns the outcomes, the elapsed seconds and the passes'
   times. *)
let drive ?spans live ~seconds =
  let s = live.stream in
  let calibration = ref [] and op_total = ref 0. and cal_total = ref 0. in
  let requests =
    Array.map
      (function (Stream.Query _ | Update _) as op -> request_json s op | Top_k _ | Batch _ -> Json.Null)
      s.ops
  in
  let n = Array.length s.ops in
  let outcomes = ref [] in
  let t_start = now_us () in
  let t_end = t_start +. (1e6 *. seconds) in
  let last = ref t_start in
  let server_cpu () = match live.server with Some srv -> Cpu.settled_us srv.thread | None -> 0. in
  let s0 = ref (server_cpu ()) in
  let i = ref 0 in
  while !i < n && !last < t_end do
    let t0 = now_us () in
    let c0 = Cpu.self_us () in
    let reply =
      match spans with
      | None -> exec live requests !i
      | Some sp ->
        Spans.record sp ~req:!i "request" (fun () ->
            Spans.record sp ~req:!i (layer_of_op s.ops.(!i)) (fun () -> exec live requests !i))
    in
    let c1 = Cpu.self_us () in
    let t1 = now_us () in
    let s1 = server_cpu () in
    let write = match s.ops.(!i) with Update _ -> true | _ -> false in
    let cpu_us = c1 -. c0 +. s1 -. !s0 in
    (* Whole relations would make this process grow with the op count. *)
    let reply =
      match reply with
      | Ok (Relations rs) ->
        Ok (Digests (List.map (fun (rel, p) -> (Match_relation.digest rel, p)) rs))
      | r -> r
    in
    outcomes := { write; lat_us = t1 -. t0; cpu_us; reply } :: !outcomes;
    s0 := s1;
    op_total := !op_total +. cpu_us;
    while !cal_total < Cpu.calibration_share *. !op_total do
      let c = Cpu.calibrate () in
      cal_total := !cal_total +. c;
      calibration := c :: !calibration
    done;
    last := now_us ();
    incr i
  done;
  (Array.of_list (List.rev !outcomes), (!last -. t_start) /. 1e6, !calibration)
