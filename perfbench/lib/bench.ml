(* One benchmark run: set-up, timed closed loop, oracle, metrics.

   [--trace 0] reports the end-to-end metrics.  [--trace 1] replays the
   same stream twice on fresh set-ups, first untraced and then with a
   span around every request, probes each layer ({!Sweep}) and reports
   the per-layer metrics together with both replays' end-to-end
   figures, so the tracing overhead is stated. *)

type metric = { name : string; value : float; unit_ : string }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let setup_repeats = 5

let metric name unit_ value = { name; value; unit_ }

type replay = {
  outcomes : Runner.outcome array;
  timed : Runner.outcome array;  (** the outcomes the timings are taken over *)
  elapsed_s : float;
  speed : float;  (** {!Cpu.speed_factor} of the replay's calibration passes *)
  peak_rss_mb : float;  (** {!Runner.engine_peak_rss_mb} after the timed phase *)
  verdict : Oracle.verdict;
  alloc_words : float;
  major_collections : int;
}

(* A cycled stream is timed over whole rounds, so that every run times
   the same ops; the trailing part round is still checked. *)
let whole_rounds (s : Stream.t) outcomes =
  let n = Array.length outcomes in
  if s.round = 0 || n < s.round then outcomes else Array.sub outcomes 0 (n / s.round * s.round)

(* The gated timings: processor time at the reference host speed. *)
let cpu r (o : Runner.outcome) = o.cpu_us *. r.speed

let wall _ (o : Runner.outcome) = o.lat_us

let latencies ~write ~time r =
  Stats.sorted
    (Array.to_list r.timed
    |> List.filter_map (fun (o : Runner.outcome) -> if o.write = write then Some (time r o) else None))

let read_latencies = latencies ~write:false ~time:cpu

let throughput r = float_of_int (Array.length r.outcomes) /. r.elapsed_s

(* Ops per second of processor time at the reference host speed: the
   throughput the closed loop would reach with the host to itself. *)
let ops_per_cpu_s r =
  let total = Array.fold_left (fun a o -> a +. cpu r o) 0. r.timed in
  float_of_int (Array.length r.timed) /. (total /. 1e6)

let replay ?spans live ~seconds =
  let outcomes, elapsed_s, calibration, (words0, majors0), (words1, majors1), peak_rss_mb =
    Fun.protect
      ~finally:(fun () -> Runner.teardown live)
      (fun () ->
        let g0 = Runner.gc_counts live in
        (* The peak of a library workload is taken over the timed phase,
           from a heap cleared of the set-up's garbage. *)
        if live.server = None then begin
          Gc.compact ();
          Runner.reset_peak_rss ()
        end;
        let outcomes, elapsed_s, calibration = Runner.drive ?spans live ~seconds in
        (outcomes, elapsed_s, calibration, g0, Runner.gc_counts live, Runner.engine_peak_rss_mb live))
  in
  let t0 = Unix.gettimeofday () in
  let verdict = Oracle.check live.Runner.stream outcomes in
  Printf.printf "oracle: %d ops checked in %.2fs\n%!" (Array.length outcomes) (Unix.gettimeofday () -. t0);
  {
    outcomes;
    timed = whole_rounds live.Runner.stream outcomes;
    elapsed_s;
    speed = Cpu.speed_factor calibration;
    peak_rss_mb;
    verdict;
    alloc_words = words1 -. words0;
    major_collections = majors1 - majors0;
  }

let share names name =
  let n = List.length names in
  if n = 0 then 0.
  else float_of_int (List.length (List.filter (( = ) name) names)) /. float_of_int n

(* Provenance of every answer the replay saw (top-K replies carry none). *)
let seen_provenances r =
  Array.to_list r.timed
  |> List.concat_map (fun (o : Runner.outcome) ->
         match o.reply with
         | Ok (Runner.Answer a) -> [ a.provenance ]
         | Ok (Runner.Digests rs) -> List.map (fun (_, p) -> Runner.provenance_name p) rs
         | Ok (Runner.Experts _ | Runner.Relations _ | Runner.Ack) | Error _ -> [])

(* ... falling back, for top-K, to the probe engine's first answers. *)
let provenances r (counts : Sweep.counts) =
  match seen_provenances r with [] -> counts.first_provenance | seen -> seen

(* The report lines of one replay: counts, wall-clock throughput, and
   read and update percentiles both in reference processor time and in
   wall-clock time. *)
let summary_line label r =
  let n = Array.length (read_latencies r) in
  let writes = Array.length (latencies ~write:true ~time:cpu r) in
  let describe name time =
    let reads = latencies ~write:false ~time r and upd = latencies ~write:true ~time r in
    let tail =
      match Stats.tail_percentile n with
      | Some p ->
        Printf.sprintf "p%g=%.1fus (%d reads beyond)" p (Stats.percentile reads p) (Stats.beyond n p)
      | None -> "tail=n/a"
    in
    Printf.sprintf "%s: read_p50=%.1fus read_p90=%.1fus %s update_p50=%.1fus update_p90=%.1fus" name
      (Stats.median reads) (Stats.percentile reads 90.) tail (Stats.median upd)
      (Stats.percentile upd 90.)
  in
  Printf.printf
    "%s: ops=%d timed=%d reads=%d writes=%d elapsed=%.3fs throughput=%.2f/s ops_per_cpu_s=%.2f \
     speed_factor=%.3f failed=%d mismatches=%d\n  %s\n  %s\n"
    label (Array.length r.outcomes) (Array.length r.timed) n writes r.elapsed_s (throughput r)
    (ops_per_cpu_s r) r.speed r.verdict.failed r.verdict.mismatches (describe "cpu" cpu)
    (describe "wall" wall);
  let prov = seen_provenances r in
  if prov <> [] then
    Printf.printf "  provenance: cache=%.3f compressed=%.3f index=%.3f direct=%.3f\n"
      (share prov "cache") (share prov "compressed") (share prov "index") (share prov "direct")

let verdict_of replays =
  let attempted = List.fold_left (fun a r -> a + Array.length r.outcomes) 0 replays in
  let failed =
    List.fold_left (fun a r -> a + r.verdict.failed + r.verdict.mismatches) 0 replays
  in
  (attempted, failed, failed = 0 && attempted > 0)

let run_untraced (s : Stream.t) ~seconds ~socket =
  let times = ref [] and walls = ref [] in
  let rec set_up k =
    let t0 = Unix.gettimeofday () in
    let live = Runner.setup s ~socket in
    walls := (Unix.gettimeofday () -. t0) :: !walls;
    let speed = Cpu.speed_factor (Cpu.passes_for ~cpu_us:(1e6 *. live.setup_cpu_s)) in
    times := (live.setup_cpu_s *. speed) :: !times;
    if k = 1 then live
    else begin
      Runner.teardown live;
      set_up (k - 1)
    end
  in
  let live = set_up setup_repeats in
  Printf.printf "set-up: %d times, median %.3fs of reference processor time, %.3fs wall\n%!"
    setup_repeats
    (Stats.median_of !times) (Stats.median_of !walls);
  let r = replay live ~seconds in
  summary_line "run" r;
  let reads = read_latencies r in
  let attempted, failed, correct = verdict_of [ r ] in
  {
    correct;
    attempted;
    failed;
    metrics =
      [
        metric "ops_per_cpu_s" "1/s" (ops_per_cpu_s r);
        metric "read_cpu_p50_us" "us" (Stats.median reads);
        metric "read_cpu_p90_us" "us" (Stats.percentile reads 90.);
        metric "setup_s" "s" (Stats.median_of !times);
        metric "peak_rss_mb" "MB" r.peak_rss_mb;
      ];
  }

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let run_traced (s : Stream.t) ~seconds ~socket ~spans_file =
  let plain = replay (Runner.setup s ~socket) ~seconds in
  summary_line "untraced" plain;
  let sp = Spans.create () in
  let traced = replay ~spans:sp (Runner.setup s ~socket) ~seconds in
  summary_line "traced" traced;
  let counts = Sweep.run sp s ~socket in
  Spans.write sp spans_file;
  Printf.printf "spans: %d written to %s\n" (List.length (Spans.spans sp)) spans_file;
  let med name = Stats.median_of (Spans.durations sp name) in
  let hit = med "engine.evaluate_hit" in
  let prov = provenances traced counts in
  let ops = max 1 (Array.length traced.outcomes) in
  let plain_p50 = Stats.median (read_latencies plain) in
  let traced_p50 = Stats.median (read_latencies traced) in
  let attempted, failed, correct = verdict_of [ plain; traced ] in
  {
    correct;
    attempted;
    failed;
    metrics =
      [
        metric "server.ping_rtt_us" "us" (med "server.ping");
        metric "server.wire_us" "us" (med "server.query_hit" -. hit);
        metric "match_relation.digest_us" "us" (med "match_relation.digest");
        metric "json.encode_us" "us" (med "json.encode");
        metric "pattern_io.parse_us" "us" (med "pattern_io.parse");
        metric "pattern.fingerprint_us" "us" (med "pattern.fingerprint");
        metric "cache.find_hit_us" "us" (med "cache.find_hit");
        metric "engine.evaluate_hit_us" "us" hit;
        metric "engine.glue_us" "us" (hit -. med "cache.find_hit" -. med "pattern.fingerprint");
        metric "telemetry.counters_snapshot_us" "us" (med "telemetry.counters_snapshot");
        metric "engine.provenance_share.cache" "ratio" (share prov "cache");
        metric "engine.provenance_share.compressed" "ratio" (share prov "compressed");
        metric "engine.provenance_share.direct" "ratio" (share prov "direct");
        metric "planner.plan_us" "us" (med "planner.plan");
        metric "candidates.compute_us" "us" (med "candidates.compute");
        metric "candidates.pairs" "count"
          (Stats.median_of (List.map float_of_int counts.candidate_pairs));
        metric "refine.us" "us" (med "refine");
        metric "refine.survival_ratio" "ratio"
          (float_of_int counts.answer_pairs /. float_of_int (max 1 counts.candidate_total));
        metric "result_graph.build_us" "us" (med "result_graph.build");
        metric "ranking.top_k_us" "us" (med "ranking.top_k");
        metric "compress.evaluate_us" "us" (med "compress.evaluate");
        metric "candidates.compute_batch_us" "us" (med "candidates.compute_batch");
        metric "parallel.fork_join_us" "us" (med "parallel.fork_join");
        metric "parallel.batch_domains1_us" "us" (med "engine.evaluate_batch.domains1");
        metric "parallel.batch_domains2_us" "us" (med "engine.evaluate_batch.domains2");
        metric "update.served_us" "us" (med "server.update");
        metric "update.apply_us" "us" (med "update.apply");
        metric "snapshot.advance_us" "us" (med "snapshot.advance");
        metric "incremental.sync_us" "us" (med "incremental.sync");
        metric "incremental.area" "count" (Stats.median_of (List.map float_of_int counts.areas));
        metric "inc_compress.sync_us" "us" (med "inc_compress.sync");
        metric "gc.alloc_kb_per_op" "kB/op"
          (traced.alloc_words *. float_of_int (Sys.word_size / 8) /. 1024. /. float_of_int ops);
        metric "gc.major_collections" "count" (float_of_int traced.major_collections);
        (* Sub-microsecond: a mean over every request of the replay. *)
        metric "trace.request_self_us" "us" (mean (Spans.self_times sp "request"));
        metric "trace.read_cpu_p50_us" "us" traced_p50;
        metric "trace.untraced_read_cpu_p50_us" "us" plain_p50;
        metric "trace.overhead_pct" "%" (100. *. (traced_p50 -. plain_p50) /. plain_p50);
      ];
  }

let json_of_result r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " metrics)
