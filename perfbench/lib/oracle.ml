(* The sequential oracle.

   After the timed phase, the recorded op stream is replayed on a
   mirror graph rebuilt from the seed.  Every read is recomputed with
   [Planner.run] on a fresh snapshot of the mirror at the same epoch —
   no cache, no compressed graph, no index — and compared with what the
   program answered: by digest for served and batch answers, and by
   [Result_graph.build] + [Ranking.top_k] for top-K answers. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental

type verdict = { failed : int; mismatches : int }

let expected_top_k p snap rel ~k =
  if not (Match_relation.is_total rel) then []
  else
    let gr = Result_graph.build p snap rel in
    Ranking.top_k gr ~output_matches:(Match_relation.matches rel (Pattern.output p)) ~k

let check (s : Stream.t) (outcomes : Runner.outcome array) =
  let g = Stream.graph s.config in
  let snap = ref None in
  let snapshot () =
    match !snap with
    | Some x -> x
    | None ->
      let x = Snapshot.of_digraph g in
      snap := Some x;
      x
  in
  (* Kernels of the current epoch, by pattern index, with their digest
     and (forced only for top-K ops) their expected experts. *)
  let memo = Hashtbl.create 64 in
  let kernel i =
    match Hashtbl.find_opt memo i with
    | Some k -> k
    | None ->
      let rel = Planner.run s.patterns.(i) (snapshot ()) in
      let snap = snapshot () in
      let k =
        ( rel,
          Match_relation.digest rel,
          lazy (expected_top_k s.patterns.(i) snap rel ~k:s.config.top_k) )
      in
      Hashtbl.add memo i k;
      k
  in
  let digest i = match kernel i with _, d, _ -> d in
  let failed = ref 0 and mismatches = ref 0 in
  let expect ok = if not ok then incr mismatches in
  Array.iteri
    (fun n (o : Runner.outcome) ->
      (match s.ops.(n) with
      | Stream.Update batch ->
        (* The engine applied the batch whether or not its reply made it
           back, so the mirror advances regardless. *)
        ignore (Update.apply_batch g batch : int);
        snap := None;
        Hashtbl.reset memo
      | Query _ | Top_k _ | Batch _ -> ());
      match (s.ops.(n), o.reply) with
      | _, Error _ -> incr failed
      | Update _, Ok Runner.Ack -> ()
      | Query i, Ok (Runner.Answer a) ->
        let rel, digest, _ = kernel i in
        expect
          (a.digest = digest
          && a.pairs = Match_relation.total rel
          && a.total = Match_relation.is_total rel)
      | Top_k i, Ok (Runner.Experts experts) ->
        let _, _, expected = kernel i in
        expect (experts = Lazy.force expected)
      | Batch idx, Ok (Runner.Digests answers) ->
        expect
          (List.length answers = Array.length idx
          && List.for_all2 (fun i (d, _) -> d = digest i) (Array.to_list idx) answers)
      | _, Ok _ -> incr mismatches)
    outcomes;
  { failed = !failed; mismatches = !mismatches }
