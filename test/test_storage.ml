(* Storage: the query-result cache and the file-backed store. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_storage
module Collab = Expfinder_workload.Collab

let sample_relation () =
  Match_relation.of_pairs ~pattern_size:2 ~graph_size:9 [ (0, 1); (1, 4) ]

(* Two identities of the same graph at consecutive epochs. *)
let sid_pair () =
  let g = Collab.graph () in
  let s0 = Snapshot.id (Snapshot.of_digraph g) in
  ignore (Digraph.add_edge g 0 3 : bool);
  let s1 = Snapshot.id (Snapshot.of_digraph g) in
  (s0, s1)

(* --- Cache ----------------------------------------------------------- *)

let test_cache_hit_and_miss () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, sid1 = sid_pair () in
  Alcotest.(check bool) "cold miss" true (Cache.find cache q ~snapshot:sid0 = None);
  Cache.store cache q ~snapshot:sid0 (sample_relation ());
  (match Cache.find cache q ~snapshot:sid0 with
  | Some r -> Alcotest.(check bool) "hit returns stored" true (Match_relation.equal r (sample_relation ()))
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other epoch misses" true (Cache.find cache q ~snapshot:sid1 = None);
  Alcotest.(check (pair int int)) "stats" (1, 2) (Cache.hits cache, Cache.misses cache)

let test_cache_copy_does_not_alias () =
  (* Regression: Digraph.copy resets the version to 0, so a bare-version
     key would serve a copy the original's cached results.  Identities
     carry a process-unique graph id, so the copy must miss. *)
  let cache = Cache.create () in
  let q = Collab.query () in
  let base = Collab.graph () in
  (* Both copies restart at version 0: a bare-version key cannot tell
     them apart, the graph id can. *)
  let g = Digraph.copy base in
  let copy = Digraph.copy base in
  Alcotest.(check bool) "copy has a fresh graph id" true
    (Digraph.graph_id copy <> Digraph.graph_id g);
  let sid = Snapshot.id (Snapshot.of_digraph g) in
  let sid_copy = Snapshot.id (Snapshot.of_digraph copy) in
  Alcotest.(check int) "same epoch" sid.Snapshot.epoch sid_copy.Snapshot.epoch;
  Cache.store cache q ~snapshot:sid (sample_relation ());
  Alcotest.(check bool) "original hits" true (Cache.find cache q ~snapshot:sid <> None);
  Alcotest.(check bool) "copy misses" true (Cache.find cache q ~snapshot:sid_copy = None)

let test_cache_is_defensive () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, _ = sid_pair () in
  let r = sample_relation () in
  Cache.store cache q ~snapshot:sid0 r;
  Match_relation.remove r 0 1;
  (* Mutating the original must not affect the cached copy... *)
  (match Cache.find cache q ~snapshot:sid0 with
  | Some cached -> Alcotest.(check bool) "stored copy intact" true (Match_relation.mem cached 0 1)
  | None -> Alcotest.fail "expected hit");
  (* ...nor mutating a returned hit. *)
  (match Cache.find cache q ~snapshot:sid0 with
  | Some hit -> Match_relation.remove hit 1 4
  | None -> Alcotest.fail "expected hit");
  match Cache.find cache q ~snapshot:sid0 with
  | Some cached -> Alcotest.(check bool) "hit copy intact" true (Match_relation.mem cached 1 4)
  | None -> Alcotest.fail "expected hit"

let test_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let q1 = Collab.query () and q2 = Collab.q1 () and q3 = Collab.q2 () in
  let sid0, _ = sid_pair () in
  Cache.store cache q1 ~snapshot:sid0 (sample_relation ());
  Cache.store cache q2 ~snapshot:sid0 (sample_relation ());
  (* Touch q1 so q2 is the LRU entry, then insert q3. *)
  ignore (Cache.find cache q1 ~snapshot:sid0 : Match_relation.t option);
  Cache.store cache q3 ~snapshot:sid0 (sample_relation ());
  Alcotest.(check int) "capacity respected" 2 (Cache.length cache);
  Alcotest.(check int) "eviction counted" 1 (Cache.evictions cache);
  Alcotest.(check bool) "q1 kept" true (Cache.find cache q1 ~snapshot:sid0 <> None);
  Alcotest.(check bool) "q2 evicted" true (Cache.find cache q2 ~snapshot:sid0 = None);
  Alcotest.(check bool) "q3 kept" true (Cache.find cache q3 ~snapshot:sid0 <> None);
  (* The eviction counter survives [clear]: it is cumulative. *)
  Cache.clear cache;
  Alcotest.(check int) "evictions cumulative across clear" 1 (Cache.evictions cache)

let test_cache_invalidation () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, sid1 = sid_pair () in
  Cache.store cache q ~snapshot:sid0 (sample_relation ());
  Cache.store cache q ~snapshot:sid1 (sample_relation ());
  Cache.invalidate_snapshot cache sid0;
  Alcotest.(check bool) "old epoch gone" true (Cache.find cache q ~snapshot:sid0 = None);
  Alcotest.(check bool) "new epoch kept" true (Cache.find cache q ~snapshot:sid1 <> None);
  Cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Cache.length cache);
  Alcotest.(check (pair int int)) "stats reset" (0, 0) (Cache.hits cache, Cache.misses cache)

(* The digest memo: computed once per entry, then read back; dropped
   with its entry by eviction, [clear], [invalidate_snapshot] and a
   re-store; never trusted for a relation that differs from the entry. *)
let test_cache_digest_memo () =
  let cache = Cache.create ~capacity:2 () in
  let q1 = Collab.query () and q2 = Collab.q1 () and q3 = Collab.q2 () in
  let sid0, sid1 = sid_pair () in
  let r = sample_relation () in
  let want = Match_relation.digest r in
  let digest q sid r = Cache.digest cache q ~snapshot:sid r in
  (* No entry: computed, nothing to memoise. *)
  Alcotest.(check string) "absent entry" want (digest q1 sid0 r);
  Alcotest.(check string) "absent entry again" want (digest q1 sid0 r);
  Alcotest.(check int) "absent entries hash every time" 2 (Cache.digests cache);
  Cache.store cache q1 ~snapshot:sid0 r;
  Alcotest.(check string) "first" want (digest q1 sid0 r);
  Alcotest.(check int) "computed once" 3 (Cache.digests cache);
  (match Cache.find cache q1 ~snapshot:sid0 with
  | Some hit -> Alcotest.(check string) "hit copy reads the memo" want (digest q1 sid0 hit)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "memo read" 3 (Cache.digests cache);
  (* Another epoch's key is another entry (or none): no memo. *)
  ignore (digest q1 sid1 r : string);
  Alcotest.(check int) "other epoch computed" 4 (Cache.digests cache);
  (* A relation the entry does not hold is hashed as given. *)
  let other = Match_relation.of_pairs ~pattern_size:2 ~graph_size:9 [ (0, 1) ] in
  Alcotest.(check string) "mismatched relation" (Match_relation.digest other)
    (digest q1 sid0 other);
  Alcotest.(check string) "memo intact" want (digest q1 sid0 r);
  Alcotest.(check int) "mismatch computed, memo read" 5 (Cache.digests cache);
  (* After each way of dropping the entry, the key is re-stored with a
     different relation: a surviving memo would report the old digest. *)
  let r' = Match_relation.of_pairs ~pattern_size:2 ~graph_size:9 [ (0, 1); (1, 5) ] in
  let dropped label f =
    Cache.store cache q1 ~snapshot:sid0 r;
    Alcotest.(check string) (label ^ ": memo") want (digest q1 sid0 r);
    let before = Cache.digests cache in
    f ();
    Cache.store cache q1 ~snapshot:sid0 r';
    Alcotest.(check string) label (Match_relation.digest r') (digest q1 sid0 r');
    Alcotest.(check int) (label ^ " recomputes") (before + 1) (Cache.digests cache)
  in
  dropped "re-store" (fun () -> ());
  dropped "clear" (fun () -> Cache.clear cache);
  dropped "invalidate_snapshot" (fun () -> Cache.invalidate_snapshot cache sid0);
  dropped "lru eviction" (fun () ->
      Cache.store cache q2 ~snapshot:sid0 r;
      Cache.store cache q3 ~snapshot:sid0 r;
      Alcotest.(check bool) "q1 evicted" true (Cache.find cache q1 ~snapshot:sid0 = None))

(* --- Graph store ------------------------------------------------------- *)

let with_store f =
  let dir = Filename.temp_file "expfinder" "" in
  Sys.remove dir;
  let store = Graph_store.open_dir dir in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f store)

let test_store_graph_roundtrip () =
  with_store (fun store ->
      let g = Collab.graph () in
      Graph_store.save_graph store "collab" g;
      Alcotest.(check (list string)) "listed" [ "collab" ] (Graph_store.list_graphs store);
      match Graph_store.load_graph store "collab" with
      | Ok g' -> Alcotest.(check bool) "roundtrip" true (Digraph.equal_structure g g')
      | Error e -> Alcotest.fail e)

let test_store_pattern_roundtrip () =
  with_store (fun store ->
      let q = Collab.query () in
      Graph_store.save_pattern store "q" q;
      Alcotest.(check (list string)) "listed" [ "q" ] (Graph_store.list_patterns store);
      match Graph_store.load_pattern store "q" with
      | Ok q' -> Alcotest.(check bool) "roundtrip" true (Pattern.equal q q')
      | Error e -> Alcotest.fail e)

let test_store_result_roundtrip () =
  with_store (fun store ->
      let pairs = [ (0, 1); (1, 4); (3, 8) ] in
      Graph_store.save_result store "m" pairs;
      match Graph_store.load_result store "m" with
      | Ok pairs' -> Alcotest.(check (list (pair int int))) "roundtrip" pairs pairs'
      | Error e -> Alcotest.fail e)

let test_store_missing_and_remove () =
  with_store (fun store ->
      (match Graph_store.load_graph store "nope" with
      | Ok _ -> Alcotest.fail "expected error"
      | Error _ -> ());
      Graph_store.save_graph store "g" (Collab.graph ());
      Graph_store.remove store "g";
      Alcotest.(check (list string)) "removed" [] (Graph_store.list_graphs store))

let test_store_rejects_bad_names () =
  with_store (fun store ->
      List.iter
        (fun name ->
          match Graph_store.save_graph store name (Collab.graph ()) with
          | () -> Alcotest.fail ("accepted bad name " ^ name)
          | exception Invalid_argument _ -> ())
        [ ""; "a/b"; ".hidden" ])

let () =
  Alcotest.run "storage"
    [
      ( "cache",
        [
          Alcotest.test_case "hit and miss" `Quick test_cache_hit_and_miss;
          Alcotest.test_case "copy does not alias" `Quick test_cache_copy_does_not_alias;
          Alcotest.test_case "defensive copies" `Quick test_cache_is_defensive;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
          Alcotest.test_case "digest memo" `Quick test_cache_digest_memo;
        ] );
      ( "store",
        [
          Alcotest.test_case "graph roundtrip" `Quick test_store_graph_roundtrip;
          Alcotest.test_case "pattern roundtrip" `Quick test_store_pattern_roundtrip;
          Alcotest.test_case "result roundtrip" `Quick test_store_result_roundtrip;
          Alcotest.test_case "missing and remove" `Quick test_store_missing_and_remove;
          Alcotest.test_case "bad names" `Quick test_store_rejects_bad_names;
        ] );
    ]
