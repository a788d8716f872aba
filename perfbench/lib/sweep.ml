(* Layer probes for the traced run.

   After the traced replay, a fresh set-up of the same workload is
   probed layer by layer on a sample of the workload's own patterns and
   update batches.  Each probe is a span around one call into a
   layer's public function; the samples of one pattern or batch share a
   request id.  The write path is timed on mirrors the benchmark owns:
   a digraph with its own incremental trackers and compressed graph. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
open Expfinder_storage
open Expfinder_engine
module Server = Expfinder_server
module Telemetry = Expfinder_telemetry
module Json = Telemetry.Json
module Parallel = Expfinder_parallel
module Queries = Expfinder_workload.Queries

let sample_size = 16
let reps = 5
let core_reps = 3
let pings = 200
let fork_joins = 50
let update_batches = 16
let fanout_domains = 2

(* Request ids of probe spans start here, above any replayed op index. *)
let req_base = 1_000_000

type counts = {
  mutable candidate_pairs : int list;  (** per sampled pattern *)
  mutable answer_pairs : int;
  mutable candidate_total : int;
  mutable areas : int list;  (** per update batch, summed over trackers *)
  mutable first_provenance : string list;
}

(* The sampled patterns: the first [sample_size] of the workload whose
   kernel is nonempty on the seed graph (so result-graph and ranking
   probes have work), topped up with the rest when there are too few. *)
let sample (s : Stream.t) snap =
  let n = Array.length s.patterns in
  let total, empty =
    List.partition
      (fun i -> Match_relation.is_total (Planner.run s.patterns.(i) snap))
      (List.init (min n (4 * sample_size)) Fun.id)
  in
  List.filteri (fun k _ -> k < sample_size) (total @ empty)

(* The batches the write probes apply, in order from the seed graph:
   the stream's own when it has updates, seeded random ones otherwise. *)
let update_batches_of (s : Stream.t) =
  match List.filter_map (function Stream.Update b -> Some b | _ -> None) (Array.to_list s.ops) with
  | _ :: _ as given -> List.filteri (fun k _ -> k < update_batches) given
  | [] ->
    let g = Stream.graph s.config in
    let rng = Prng.create (s.seed + 1) in
    List.init update_batches (fun _ ->
        let batch = Update.random_mixed rng g Stream.update_edges in
        ignore (Update.apply_batch g batch : int);
        batch)

let probe_served sp live idx batches =
  let s = live.Runner.stream in
  match live.Runner.server with
  | None -> ()
  | Some srv ->
    for k = 0 to pings - 1 do
      Spans.record sp ~req:(req_base + k) "server.ping" (fun () ->
          ignore (Runner.request srv.conn (Json.Obj [ ("op", Json.Str "ping") ])))
    done;
    let cache = Cache.create ~capacity:Stream.cache_capacity () in
    let id = Snapshot.id (Engine.snapshot live.engine) in
    List.iter
      (fun i ->
        let req = req_base + i in
        let p = s.patterns.(i) in
        let json = Runner.request_json s (Stream.Query i) in
        (* The first query is the miss that fills the cache. *)
        ignore (Runner.request srv.conn json);
        let rel = (Engine.evaluate live.engine p).relation in
        Cache.store cache p ~snapshot:id rel;
        for _ = 1 to reps do
          Spans.record sp ~req "json.encode" (fun () -> ignore (Json.to_string json));
          Spans.record sp ~req "pattern_io.parse" (fun () -> ignore (Pattern_io.of_string s.texts.(i)));
          Spans.record sp ~req "pattern.fingerprint" (fun () -> ignore (Pattern.fingerprint p));
          Spans.record sp ~req "server.query_hit" (fun () -> ignore (Runner.request srv.conn json));
          Spans.record sp ~req "engine.evaluate_hit" (fun () -> ignore (Engine.evaluate live.engine p));
          Spans.record sp ~req "cache.find_hit" (fun () -> ignore (Cache.find cache p ~snapshot:id));
          Spans.record sp ~req "match_relation.digest" (fun () -> ignore (Match_relation.digest rel));
          Spans.record sp ~req "telemetry.counters_snapshot" (fun () ->
              ignore (Telemetry.Metrics.counters_snapshot ()))
        done)
      idx;
    (* Last, as updates clear the cache. *)
    List.iteri
      (fun k batch ->
        Spans.record sp ~req:(req_base + k) "server.update" (fun () ->
            ignore (Runner.request srv.conn (Runner.request_json s (Stream.Update batch)))))
      batches

let probe_core sp counts (s : Stream.t) snap idx =
  let compressed = Compress.compress ~atoms:Queries.atom_universe snap in
  let fresh = Engine.create ~cache_capacity:Stream.cache_capacity (Snapshot.to_digraph snap) in
  if s.config.compression then Engine.enable_compression ~atoms:Queries.atom_universe fresh;
  List.iter
    (fun i ->
      let req = req_base + i in
      let p = s.patterns.(i) in
      counts.first_provenance <-
        Runner.provenance_name (Engine.evaluate fresh p).provenance :: counts.first_provenance;
      for r = 1 to core_reps do
        let plan = Spans.record sp ~req "planner.plan" (fun () -> Planner.plan p snap) in
        let cands = Spans.record sp ~req "candidates.compute" (fun () -> Candidates.compute p snap) in
        let rel = Spans.record sp ~req "refine" (fun () -> Planner.execute plan p snap) in
        if r = 1 then begin
          counts.candidate_pairs <- Match_relation.total cands :: counts.candidate_pairs;
          counts.candidate_total <- counts.candidate_total + Match_relation.total cands;
          counts.answer_pairs <- counts.answer_pairs + Match_relation.total rel
        end;
        if Match_relation.is_total rel then begin
          let gr = Spans.record sp ~req "result_graph.build" (fun () -> Result_graph.build p snap rel) in
          let output_matches = Match_relation.matches rel (Pattern.output p) in
          Spans.record sp ~req "ranking.top_k" (fun () ->
              ignore (Ranking.top_k gr ~output_matches ~k:10))
        end;
        if Compress.supports compressed p then
          Spans.record sp ~req "compress.evaluate" (fun () -> ignore (Compress.evaluate compressed p))
      done)
    idx

let probe_parallel sp (s : Stream.t) snap idx =
  for k = 0 to fork_joins - 1 do
    Spans.record sp ~req:(req_base + k) "parallel.fork_join" (fun () ->
        ignore (Parallel.run ~domains:fanout_domains (fun _ -> ())))
  done;
  let patterns = List.map (fun i -> s.patterns.(i)) idx in
  for k = 0 to reps - 1 do
    Spans.record sp ~req:(req_base + k) "candidates.compute_batch" (fun () ->
        ignore (Candidates.compute_batch ~domains:fanout_domains (Array.of_list patterns) snap))
  done;
  (* The whole batch at one and at two domains, each on a fresh engine
     so that no answer comes from the cache. *)
  for k = 0 to core_reps - 1 do
    List.iter
      (fun domains ->
        let engine = Engine.create ~cache_capacity:Stream.cache_capacity (Snapshot.to_digraph snap) in
        Spans.record sp ~req:(req_base + k) (Printf.sprintf "engine.evaluate_batch.domains%d" domains)
          (fun () -> ignore (Engine.evaluate_batch ~domains engine patterns)))
      [ 1; fanout_domains ]
  done

(* The write path, layer by layer, on a benchmark-owned mirror. *)
let probe_writes sp counts (s : Stream.t) idx batches =
  let g = Stream.graph s.config in
  let trackers =
    List.map (fun i -> Incremental.create s.patterns.(i) g) (List.filteri (fun k _ -> k < 4) idx)
  in
  let compressed = Inc_compress.create ~atoms:Queries.atom_universe g in
  let snap = ref (Snapshot.of_digraph g) in
  List.iteri
    (fun k batch ->
      let req = req_base + k in
      let effective = Spans.record sp ~req "update.apply" (fun () -> Update.apply_batch_filtered g batch) in
      let added, removed = Update.net_edge_changes g effective in
      snap :=
        Spans.record sp ~req "snapshot.advance" (fun () ->
            Snapshot.advance !snap ~version:(Digraph.version g) ~added ~removed);
      let reports =
        Spans.record sp ~req "incremental.sync" (fun () ->
            List.map (fun t -> Incremental.sync_applied t ~effective) trackers)
      in
      counts.areas <- List.fold_left (fun a (r : Incremental.report) -> a + r.area) 0 reports :: counts.areas;
      Spans.record sp ~req "inc_compress.sync" (fun () ->
          ignore
            (Inc_compress.sync compressed ~snapshot:!snap ~effective:(List.length effective) effective
              : Inc_compress.report)))
    batches

let run sp (s : Stream.t) ~socket =
  let counts =
    { candidate_pairs = []; answer_pairs = 0; candidate_total = 0; areas = []; first_provenance = [] }
  in
  let live = Runner.setup ~serve:true s ~socket in
  let snap = Engine.snapshot live.engine in
  let idx = sample s snap in
  let batches = update_batches_of s in
  Fun.protect
    ~finally:(fun () -> Runner.teardown live)
    (fun () -> probe_served sp live idx batches);
  (* The server domain has stopped: the fork/join probes may use both cores. *)
  probe_core sp counts s snap idx;
  probe_parallel sp s snap idx;
  probe_writes sp counts s idx batches;
  counts
