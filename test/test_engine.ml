(* The query engine: provenance (cache / compressed / direct), top-K,
   registered-query maintenance, and consistency across update streams. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_engine
module Collab = Expfinder_workload.Collab
module Queries = Expfinder_workload.Queries
module Synthetic = Expfinder_workload.Synthetic

let test_provenance_cache () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  let first = Engine.evaluate engine q in
  Alcotest.(check bool) "first direct" true (first.Engine.provenance = Engine.Direct);
  let second = Engine.evaluate engine q in
  Alcotest.(check bool) "second cached" true (second.Engine.provenance = Engine.From_cache);
  Alcotest.(check bool) "same relation" true
    (Match_relation.equal first.Engine.relation second.Engine.relation);
  Alcotest.(check bool) "total" true first.Engine.total

let test_provenance_compressed () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  (* Q's conditions are exp>=2/3/5; 5 is not in the workload universe, so
     use a dedicated universe that covers Q. *)
  Engine.enable_compression
    ~atoms:
      [
        { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 2 };
        { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 3 };
        { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 5 };
      ]
    engine;
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "from compressed" true (answer.Engine.provenance = Engine.From_compressed);
  let direct = Bounded_sim.run q (Engine.snapshot engine) in
  Alcotest.(check bool) "matches direct" true (Match_relation.equal answer.Engine.relation direct);
  Engine.disable_compression engine;
  Alcotest.(check bool) "compression off" true (Engine.compression engine = None)

let test_unsupported_pattern_falls_back () =
  let engine = Engine.create (Collab.graph ()) in
  Engine.enable_compression engine;
  (* empty universe: Q unsupported *)
  let answer = Engine.evaluate engine (Collab.query ()) in
  Alcotest.(check bool) "direct fallback" true (answer.Engine.provenance = Engine.Direct);
  Alcotest.(check bool) "still total" true answer.Engine.total

let test_top_k_names () =
  let engine = Engine.create (Collab.graph ()) in
  match Engine.top_k engine (Collab.query ()) ~k:2 with
  | [ first; second ] ->
    Alcotest.(check (option string)) "top-1 Bob" (Some "Bob") first.Engine.name;
    Alcotest.(check (option string)) "top-2 Walt" (Some "Walt") second.Engine.name;
    Alcotest.(check bool) "ranks ordered" true
      (Ranking.compare_rank first.Engine.rank second.Engine.rank <= 0)
  | _ -> Alcotest.fail "expected two experts"

let test_top_k_empty_when_no_match () =
  let engine = Engine.create (Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  Alcotest.(check int) "no experts" 0 (List.length (Engine.top_k engine p ~k:5))

(* Golden pin of the full ranked answer of [Engine.top_k ~k:max_int] on
   a seeded Twitter graph: for each of 8 seeded bounded patterns, the
   number of ranked experts and the MD5 of their "node:num/den" list.
   Any change to the result-graph construction or the ranking kernel
   that moves a rank, a tie order or the +inf tail shows up here. *)
let twitter_topk_golden =
  [
    (2, "87b6b7b34d8a6d07f5a112575f3564a9");
    (24, "0ef2f8ebca678849d87e61bb37a023a7");
    (16, "9c9f72af9d6e39a621256c69b070b79e");
    (22, "34f97efb2cecedcf844aa3e9c1f488fa");
    (0, "d41d8cd98f00b204e9800998ecf8427e");
    (33, "704e4e232bee31424463997b960b6cd1");
    (4, "f53203e786a05617597d332c40ab2184");
    (52, "07812525d06a028a7b0798d99deb0002");
  ]

let test_top_k_golden () =
  let g = Expfinder_workload.Twitter.generate (Prng.create 1) ~n:2000 in
  let engine = Engine.create g in
  let patterns = Queries.workload (Prng.create 11) ~count:8 ~simulation:false g in
  let pinned =
    List.map
      (fun p ->
        let experts = Engine.top_k engine p ~k:max_int in
        let listing =
          String.concat ";"
            (List.map
               (fun (e : Engine.expert) ->
                 Printf.sprintf "%d:%d/%d" e.node e.rank.Ranking.num e.rank.Ranking.den)
               experts)
        in
        (List.length experts, Digest.to_hex (Digest.string listing)))
      patterns
  in
  Alcotest.(check (list (pair int string))) "ranked lists" twitter_topk_golden pinned

let test_updates_invalidate_cache () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  ignore (Engine.evaluate engine q : Engine.answer);
  ignore (Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
           : Incremental.report list);
  let after = Engine.evaluate engine q in
  Alcotest.(check bool) "fresh answer" true (after.Engine.provenance <> Engine.From_cache);
  Alcotest.(check bool) "Fred matched now" true (Match_relation.mem after.Engine.relation 1 Collab.fred)

let digest_of (a : Engine.answer) = Lazy.force a.Engine.digest

let test_digest_follows_epoch () =
  (* The memoised digest is keyed to the snapshot each answer was
     computed on: a hit after an update reports the new epoch's digest,
     and an answer from before the update still reports its own. *)
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  let first = Engine.evaluate engine q in
  let d0 = digest_of first in
  Alcotest.(check string) "miss digest" (Match_relation.digest first.Engine.relation) d0;
  let old_hit = Engine.evaluate engine q in
  Alcotest.(check bool) "old hit" true (old_hit.Engine.provenance = Engine.From_cache);
  ignore (Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
           : Incremental.report list);
  let miss = Engine.evaluate engine q in
  let hit = Engine.evaluate engine q in
  Alcotest.(check bool) "new hit" true (hit.Engine.provenance = Engine.From_cache);
  let d1 = Match_relation.digest (Planner.run q (Engine.snapshot engine)) in
  Alcotest.(check bool) "the update changed the answer" true (d0 <> d1);
  Alcotest.(check string) "new miss digest" d1 (digest_of miss);
  Alcotest.(check string) "new hit digest" d1 (digest_of hit);
  Alcotest.(check string) "pre-update hit keeps its epoch's digest" d0 (digest_of old_hit)

let test_batch_digests () =
  (* Duplicates and cache hits inside a batch carry their relation's
     digest, equal to the single-query answer's. *)
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () and q1 = Collab.q1 () in
  let check_answers label answers =
    List.iter
      (fun (a : Engine.answer) ->
        Alcotest.(check string) label (Match_relation.digest a.Engine.relation) (digest_of a))
      answers
  in
  match Engine.evaluate_batch engine [ q; q1; q ] with
  | [ a0; a1; a2 ] as cold ->
    check_answers "cold batch" cold;
    Alcotest.(check bool) "duplicate from cache" true (a2.Engine.provenance = Engine.From_cache);
    Alcotest.(check string) "duplicate digest" (digest_of a0) (digest_of a2);
    (match Engine.evaluate_batch engine [ q1; q ] with
    | [ b1; b0 ] as warm ->
      check_answers "warm batch" warm;
      Alcotest.(check bool) "warm hits" true
        (b0.Engine.provenance = Engine.From_cache && b1.Engine.provenance = Engine.From_cache);
      Alcotest.(check string) "hit digest q" (digest_of a0) (digest_of b0);
      Alcotest.(check string) "hit digest q1" (digest_of a1) (digest_of b1)
    | _ -> Alcotest.fail "expected two answers");
    Alcotest.(check string) "batch digest = query digest" (digest_of a0)
      (digest_of (Engine.evaluate engine q))
  | _ -> Alcotest.fail "expected three answers"

let test_registered_query_maintained () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  Engine.register engine q;
  Alcotest.(check int) "registered" 1 (List.length (Engine.registered engine));
  let reports =
    Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
  in
  (match reports with
  | [ report ] ->
    Alcotest.(check (list (pair int int))) "maintained delta" [ (1, Collab.fred) ]
      report.Incremental.added
  | _ -> Alcotest.fail "expected one report");
  (* The registered kernel now answers without recomputation. *)
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "Fred present" true (Match_relation.mem answer.Engine.relation 1 Collab.fred);
  Engine.unregister engine q;
  Alcotest.(check int) "unregistered" 0 (List.length (Engine.registered engine))

let test_engine_consistency_under_updates () =
  (* Everything stays consistent across a stream of random update batches:
     registered kernel = compressed answer = direct recomputation. *)
  let rng = Prng.create 99 in
  let g = Synthetic.org rng ~teams:8 ~team_size:5 in
  let engine = Engine.create g in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  let q =
    match Queries.workload rng ~count:1 ~simulation:false (Engine.graph engine) with
    | [ q ] -> q
    | _ -> Alcotest.fail "workload"
  in
  Engine.register engine q;
  for _round = 1 to 5 do
    let updates = Update.random_mixed rng (Engine.graph engine) 4 in
    ignore (Engine.apply_updates engine updates : Incremental.report list);
    let direct = Bounded_sim.run q (Engine.snapshot engine) in
    let answer = Engine.evaluate engine q in
    Alcotest.(check bool) "engine = direct" true
      (Match_relation.equal answer.Engine.relation direct);
    match Engine.compression engine with
    | Some compressed when Expfinder_compression.Compress.supports compressed q ->
      Alcotest.(check bool) "compressed = direct" true
        (Match_relation.equal (Expfinder_compression.Compress.evaluate compressed q) direct)
    | _ -> ()
  done

let test_ball_index_provenance () =
  let engine = Engine.create (Collab.graph ()) in
  Engine.enable_ball_index ~radius:3 engine;
  let q = Collab.query () in
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "answered from index" true
    (answer.Engine.provenance = Engine.From_index);
  let direct = Bounded_sim.run q (Engine.snapshot engine) in
  Alcotest.(check bool) "matches direct" true
    (Match_relation.equal answer.Engine.relation direct);
  (* Updates invalidate the index; it is rebuilt lazily and stays
     correct. *)
  ignore
    (Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
      : Incremental.report list);
  let after = Engine.evaluate engine q in
  Alcotest.(check bool) "still from index" true (after.Engine.provenance = Engine.From_index);
  Alcotest.(check bool) "Fred found via index" true
    (Match_relation.mem after.Engine.relation 1 Collab.fred);
  (* Unsupported patterns (unbounded edges) fall back to the planner. *)
  let q3 = Collab.q3 () in
  let fallback = Engine.evaluate engine q3 in
  Alcotest.(check bool) "unbounded falls back" true
    (fallback.Engine.provenance = Engine.Direct);
  Engine.disable_ball_index engine;
  ignore (Engine.apply_updates engine [] : Incremental.report list);
  let off = Engine.evaluate engine q in
  Alcotest.(check bool) "disabled -> direct" true (off.Engine.provenance = Engine.Direct)

let test_result_graph_empty_when_no_match () =
  let engine = Engine.create (Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let gr = Engine.result_graph engine p in
  Alcotest.(check int) "empty result graph" 0 (Result_graph.node_count gr)

let test_register_is_idempotent () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  Engine.register engine q;
  Engine.register engine q;
  Alcotest.(check int) "registered once" 1 (List.length (Engine.registered engine));
  (* A structurally equal but separately built pattern shares the
     fingerprint and therefore the registration. *)
  Engine.register engine (Collab.query ());
  Alcotest.(check int) "still once" 1 (List.length (Engine.registered engine))

let test_all_features_agree () =
  (* Cache + compression + ball index + registration all enabled: every
     answer, whatever its provenance, equals direct evaluation. *)
  let rng = Prng.create 123 in
  let g = Synthetic.org rng ~teams:30 ~team_size:6 in
  let engine = Engine.create g in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  Engine.enable_ball_index ~radius:3 engine;
  let queries = Queries.workload rng ~count:6 ~simulation:false (Engine.graph engine) in
  List.iter (Engine.register engine) [ List.hd queries ];
  for _round = 1 to 3 do
    List.iter
      (fun q ->
        let answer = Engine.evaluate engine q in
        let direct = Bounded_sim.run q (Engine.snapshot engine) in
        Alcotest.(check bool)
          (Printf.sprintf "answer (%s) = direct"
             (match answer.Engine.provenance with
             | Engine.From_cache -> "cache"
             | Engine.From_compressed -> "compressed"
             | Engine.From_index -> "index"
             | Engine.Direct -> "direct"))
          true
          (Match_relation.equal answer.Engine.relation direct))
      queries;
    let updates = Update.random_mixed rng (Engine.graph engine) 5 in
    ignore (Engine.apply_updates engine updates : Incremental.report list)
  done

let test_cache_stats () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  ignore (Engine.evaluate engine q : Engine.answer);
  ignore (Engine.evaluate engine q : Engine.answer);
  let hits, misses = Engine.cache_stats engine in
  Alcotest.(check bool) "one hit, one miss" true (hits >= 1 && misses >= 1)

(* Containment reuse: a cached superset query answers a contained query
   without touching the whole graph. *)
let loose_query () =
  let q = Collab.query () in
  let nodes =
    Array.init (Pattern.size q) (fun u ->
        let s = Pattern.node_spec q u in
        { s with Pattern.pred = Predicate.always })
  in
  let edges =
    List.map
      (fun (u, v, b) ->
        (u, v, match b with Pattern.Bounded k -> Pattern.Bounded (k + 1) | b -> b))
      (Pattern.edges q)
  in
  Pattern.make_exn ~nodes ~edges ~output:(Pattern.output q)

let test_containment_reuse () =
  let open Expfinder_telemetry in
  set_enabled true;
  Fun.protect ~finally:(fun () -> set_enabled false) @@ fun () ->
  let engine = Engine.create (Collab.graph ()) in
  let tight = Collab.query () and loose = loose_query () in
  Alcotest.(check bool) "precondition: tight ⊑ loose" true
    (Pattern_analysis.contains tight loose);
  let hits = Metrics.counter "engine.containment_hits" in
  let before = Counter.value hits in
  let first = Engine.evaluate engine loose in
  Alcotest.(check bool) "superset evaluated directly" true
    (first.Engine.provenance = Engine.Direct);
  let second = Engine.evaluate engine tight in
  Alcotest.(check bool) "contained query served from the cached superset" true
    (second.Engine.provenance = Engine.From_cache);
  Alcotest.(check int) "containment hit counted" (before + 1) (Counter.value hits);
  let direct = Bounded_sim.run tight (Engine.snapshot engine) in
  Alcotest.(check bool) "answer equals direct evaluation" true
    (Match_relation.equal second.Engine.relation direct);
  (* The reused answer is cached under the tight fingerprint: a third
     evaluation is an exact cache hit, no containment scan. *)
  let third = Engine.evaluate engine tight in
  Alcotest.(check bool) "then an exact hit" true (third.Engine.provenance = Engine.From_cache);
  Alcotest.(check int) "no second containment hit" (before + 1) (Counter.value hits)

let test_differential_mode_passes () =
  Verify.set_differential true;
  Fun.protect ~finally:(fun () -> Verify.set_differential false) @@ fun () ->
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  let first = Engine.evaluate engine q in
  let second = Engine.evaluate engine q in
  Alcotest.(check bool) "cached answer survives the differential check" true
    (second.Engine.provenance = Engine.From_cache);
  Alcotest.(check bool) "answers agree" true
    (Match_relation.equal first.Engine.relation second.Engine.relation);
  let contained = Engine.evaluate engine (loose_query ()) in
  Alcotest.(check bool) "direct answer passes the sanitizer" true contained.Engine.total;
  Engine.enable_ball_index engine;
  let indexed = Engine.evaluate engine q in
  Alcotest.(check bool) "indexed answer passes too" true indexed.Engine.total

(* With telemetry off a sampled request still records a profile; its
   counters are the request's own deltas, never absolute gauge readings
   such as the process.* values a prior [process_stats] published. *)
let test_sampled_profile_counts_deltas () =
  let open Expfinder_telemetry in
  set_enabled false;
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  ignore (process_stats () : (string * int) list);
  let answer = Engine.evaluate ~trace:(Trace.make ~sampled:true ()) engine q in
  match answer.Engine.profile with
  | None -> Alcotest.fail "a sampled request yields a profile"
  | Some p ->
    let absolute =
      List.filter
        (fun (name, _) -> String.length name >= 8 && String.sub name 0 8 = "process.")
        p.Engine.counters
    in
    Alcotest.(check (list (pair string int))) "no process.* readings" [] absolute

(* Update batches reach the flight recorder like queries and batches. *)
let test_updates_reach_recorder () =
  let open Expfinder_telemetry in
  Recorder.clear ();
  Fun.protect ~finally:Recorder.clear @@ fun () ->
  let engine = Engine.create (Collab.graph ()) in
  let ctx = Trace.make () in
  ignore
    (Engine.apply_updates ~trace:ctx engine
       [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]);
  match
    List.find_opt (fun (e : Recorder.event) -> e.Recorder.trace_id = ctx.Trace.trace_id)
      (Recorder.recent ())
  with
  | None -> Alcotest.fail "the update batch is missing from the flight recorder"
  | Some e -> Alcotest.(check string) "recorded as an update" "update" e.Recorder.strategy

let () =
  Alcotest.run "engine"
    [
      ( "evaluate",
        [
          Alcotest.test_case "cache provenance" `Quick test_provenance_cache;
          Alcotest.test_case "compressed provenance" `Quick test_provenance_compressed;
          Alcotest.test_case "unsupported falls back" `Quick test_unsupported_pattern_falls_back;
          Alcotest.test_case "ball index" `Quick test_ball_index_provenance;
          Alcotest.test_case "cache stats" `Quick test_cache_stats;
          Alcotest.test_case "containment reuse" `Quick test_containment_reuse;
          Alcotest.test_case "differential mode" `Quick test_differential_mode_passes;
          Alcotest.test_case "sampled profile counts deltas" `Quick
            test_sampled_profile_counts_deltas;
        ] );
      ( "topk",
        [
          Alcotest.test_case "names and order" `Quick test_top_k_names;
          Alcotest.test_case "empty on no match" `Quick test_top_k_empty_when_no_match;
          Alcotest.test_case "empty result graph" `Quick test_result_graph_empty_when_no_match;
          Alcotest.test_case "twitter ranked-list golden" `Quick test_top_k_golden;
        ] );
      ( "features",
        [
          Alcotest.test_case "register idempotent" `Quick test_register_is_idempotent;
          Alcotest.test_case "all features agree" `Quick test_all_features_agree;
        ] );
      ( "updates",
        [
          Alcotest.test_case "cache invalidation" `Quick test_updates_invalidate_cache;
          Alcotest.test_case "registered maintained" `Quick test_registered_query_maintained;
          Alcotest.test_case "consistency stream" `Quick test_engine_consistency_under_updates;
          Alcotest.test_case "digest follows the epoch" `Quick test_digest_follows_epoch;
          Alcotest.test_case "batch digests" `Quick test_batch_digests;
          Alcotest.test_case "updates reach the recorder" `Quick test_updates_reach_recorder;
        ] );
    ]
