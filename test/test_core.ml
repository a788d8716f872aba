(* Core matching: the production engines (HHK simulation, bounded
   simulation with both strategies) checked against a brute-force
   reference implementation of the paper's definition, plus result-graph
   and ranking behaviour. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let random_graph rng =
  let n = 1 + Prng.int rng 25 in
  let m = Prng.int rng (3 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ]))

let random_pattern rng ~simulation ~unbounded =
  let c =
    {
      Pattern_gen.default with
      nodes = 1 + Prng.int rng 4;
      extra_edges = Prng.int rng 3;
      max_bound = 3;
      unbounded_prob = (if unbounded then 0.3 else 0.0);
      condition_prob = 0.5;
      condition_range = (0, 3);
    }
  in
  let c = if simulation then Pattern_gen.simulation_config c else c in
  Pattern_gen.generate rng c ~labels

(* Brute-force greatest fixpoint straight from the definition: all-pairs
   nonempty-path distances + sweep-until-stable.  O(n^2·m) — fine for the
   tiny random graphs used here. *)
let reference pattern g =
  let n = Snapshot.node_count g in
  let scratch = Distance.make_scratch g in
  let dist = Array.make_matrix (max n 1) (max n 1) (-1) in
  for v = 0 to n - 1 do
    Distance.ball scratch g v n (fun w d -> dist.(v).(w) <- d)
  done;
  let m =
    Match_relation.create ~pattern_size:(Pattern.size pattern) ~graph_size:n
  in
  for u = 0 to Pattern.size pattern - 1 do
    for v = 0 to n - 1 do
      if Pattern.matches_node pattern u (Snapshot.label g v) (Snapshot.attrs g v) then
        Match_relation.add m u v
    done
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for u = 0 to Pattern.size pattern - 1 do
      List.iter
        (fun v ->
          let ok =
            List.for_all
              (fun (u', b) ->
                List.exists
                  (fun w ->
                    dist.(v).(w) >= 1
                    &&
                    match b with
                    | Pattern.Unbounded -> true
                    | Pattern.Bounded k -> dist.(v).(w) <= k)
                  (Match_relation.matches m u'))
              (Pattern.out_edges pattern u)
          in
          if not ok then begin
            Match_relation.remove m u v;
            changed := true
          end)
        (Match_relation.matches m u)
    done
  done;
  m

let prop_simulation_matches_reference seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:true ~unbounded:false in
  Match_relation.equal (Simulation.run pattern g) (reference pattern g)

let prop_bsim_counters_matches_reference seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  Match_relation.equal
    (Bounded_sim.run ~strategy:Bounded_sim.Counters pattern g)
    (reference pattern g)

let prop_bsim_naive_matches_reference seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:true in
  Match_relation.equal
    (Bounded_sim.run ~strategy:Bounded_sim.Naive pattern g)
    (reference pattern g)

let prop_bsim_strategies_agree seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:true in
  Match_relation.equal
    (Bounded_sim.run ~strategy:Bounded_sim.Counters pattern g)
    (Bounded_sim.run ~strategy:Bounded_sim.Naive pattern g)

let prop_bound1_equals_simulation seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:true ~unbounded:false in
  Match_relation.equal (Simulation.run pattern g) (Bounded_sim.run pattern g)

let prop_kernel_consistent seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  let m = Bounded_sim.run pattern g in
  Bounded_sim.consistent pattern g m

let prop_relaxing_bounds_grows_matches seed =
  (* Monotonicity: raising a bound can only add matches. *)
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  let relaxed_edges =
    List.map
      (fun (u, v, b) ->
        match b with
        | Pattern.Bounded k -> (u, v, Pattern.Bounded (k + 1))
        | Pattern.Unbounded -> (u, v, Pattern.Unbounded))
      (Pattern.edges pattern)
  in
  let nodes = Array.init (Pattern.size pattern) (Pattern.node_spec pattern) in
  let relaxed = Pattern.make_exn ~nodes ~edges:relaxed_edges ~output:(Pattern.output pattern) in
  let tight = Bounded_sim.run pattern g in
  let loose = Bounded_sim.run relaxed g in
  List.for_all
    (fun (u, v) -> Match_relation.mem loose u v)
    (Match_relation.pairs tight)

(* --- Match_relation ------------------------------------------------------ *)

let test_match_relation_ops () =
  let m = Match_relation.create ~pattern_size:2 ~graph_size:10 in
  Alcotest.(check bool) "not total" false (Match_relation.is_total m);
  Match_relation.add m 0 3;
  Match_relation.add m 1 5;
  Match_relation.add m 1 2;
  Alcotest.(check bool) "total" true (Match_relation.is_total m);
  Alcotest.(check int) "total pairs" 3 (Match_relation.total m);
  Alcotest.(check (list (pair int int))) "pairs" [ (0, 3); (1, 2); (1, 5) ] (Match_relation.pairs m);
  let c = Match_relation.copy m in
  Match_relation.remove c 0 3;
  Alcotest.(check bool) "copy independent" true (Match_relation.mem m 0 3);
  Alcotest.(check bool) "not equal" false (Match_relation.equal m c);
  let m2 = Match_relation.of_pairs ~pattern_size:2 ~graph_size:10 (Match_relation.pairs m) in
  Alcotest.(check bool) "of_pairs" true (Match_relation.equal m m2);
  Match_relation.clear m;
  Alcotest.(check int) "cleared" 0 (Match_relation.total m)

(* The list-based digest the word-walking kernel replaced, kept as the
   reference for the wire format. *)
let reference_digest m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int (Match_relation.pattern_size m));
  for u = 0 to Match_relation.pattern_size m - 1 do
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int u);
    List.iter
      (fun v ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int v))
      (Match_relation.matches m u)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Random relations biased towards the edges of the word layout: empty
   sets, the last index, and indices in bit 62 (the sign bit) of a
   word. *)
let prop_digest_matches_reference seed =
  let rng = Prng.create seed in
  let pattern_size = 1 + Prng.int rng 5 in
  let graph_size = 1 + Prng.int rng 400 in
  let m = Match_relation.create ~pattern_size ~graph_size in
  for u = 0 to pattern_size - 1 do
    if Prng.int rng 4 > 0 then
      for _ = 0 to Prng.int rng 40 do
        let v =
          match Prng.int rng 3 with
          | 0 -> graph_size - 1
          | 1 -> min (graph_size - 1) ((63 * Prng.int rng 7) + 62)
          | _ -> Prng.int rng graph_size
        in
        Match_relation.add m u v
      done
  done;
  Match_relation.digest m = reference_digest m

let test_digest_golden () =
  (* Pins the wire format: the MD5 of "3|0,0,61,62,63,125,199|1|2,7,62". *)
  let m =
    Match_relation.of_pairs ~pattern_size:3 ~graph_size:200
      [ (0, 0); (0, 61); (0, 62); (0, 63); (0, 125); (0, 199); (2, 7); (2, 62) ]
  in
  Alcotest.(check string) "golden" "893123b91f2621018aab5db31d4e11ef" (Match_relation.digest m);
  Alcotest.(check string) "reference" (reference_digest m) (Match_relation.digest m);
  Alcotest.(check string) "graph_size padding is not hashed"
    (Match_relation.digest m)
    (Match_relation.digest
       (Match_relation.of_pairs ~pattern_size:3 ~graph_size:100_000 (Match_relation.pairs m)))

(* --- Candidates ----------------------------------------------------------- *)

let test_candidates_respect_predicates () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let c = Candidates.compute q g in
  (* SD candidates: everyone with the SD label and exp >= 2, including
     Fred (edge constraints are not applied yet). *)
  Alcotest.(check (list int)) "SD candidates"
    (List.sort compare
       Expfinder_workload.Collab.[ dan; mat; pat; fred ])
    (Match_relation.matches c 1);
  (* SA candidates need exp >= 5. *)
  Alcotest.(check (list int)) "SA candidates"
    Expfinder_workload.Collab.[ walt; bob ]
    (Match_relation.matches c 0)

(* --- Empty / degenerate cases ---------------------------------------------- *)

let test_no_match_is_untotal () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let m = Bounded_sim.run p g in
  Alcotest.(check bool) "untotal" false (Match_relation.is_total m);
  Alcotest.(check int) "no pairs" 0 (Match_relation.total m)

let test_single_node_pattern () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let m = Simulation.run p g in
  Alcotest.(check (list int)) "both SAs"
    Expfinder_workload.Collab.[ walt; bob ]
    (Match_relation.matches m 0)

let test_empty_graph () =
  let g = Snapshot.of_digraph (Digraph.create ()) in
  let nodes =
    [| { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  Alcotest.(check int) "no matches" 0 (Match_relation.total (Bounded_sim.run p g));
  Alcotest.(check int) "sim no matches" 0 (Match_relation.total (Simulation.run p g))

(* --- Result graph / ranking ------------------------------------------------ *)

let test_result_graph_empty_relation () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let empty = Match_relation.create ~pattern_size:(Pattern.size q) ~graph_size:(Snapshot.node_count g) in
  let gr = Result_graph.build q g empty in
  Alcotest.(check int) "no nodes" 0 (Result_graph.node_count gr);
  Alcotest.(check int) "no edges" 0 (Result_graph.edge_count gr)

let test_result_graph_roles () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let m = Bounded_sim.run q g in
  let gr = Result_graph.build q g m in
  Alcotest.(check (list int)) "Bob matches SA" [ 0 ]
    (Result_graph.pattern_nodes_of gr Expfinder_workload.Collab.bob);
  Alcotest.(check (list int)) "unmatched node has no roles" []
    (Result_graph.pattern_nodes_of gr Expfinder_workload.Collab.bill);
  Alcotest.(check bool) "mem" true (Result_graph.mem_data_node gr Expfinder_workload.Collab.eva);
  Alcotest.(check bool) "not mem" false (Result_graph.mem_data_node gr Expfinder_workload.Collab.bill);
  let dot = Result_graph.to_dot q g ~highlight:[ Expfinder_workload.Collab.bob ] gr in
  Alcotest.(check bool) "dot nonempty" true (String.length dot > 40)

let test_rank_isolated_node_infinite () =
  (* A pattern with one node: result graph has no edges, every rank is
     infinite, and top-k falls back to node-id order. *)
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let m = Simulation.run p g in
  let gr = Result_graph.build p g m in
  let r = Ranking.rank_of gr Expfinder_workload.Collab.bob in
  Alcotest.(check bool) "infinite" true (r.Ranking.den = 0);
  Alcotest.(check bool) "inf = inf" true (Ranking.compare_rank r r = 0);
  Alcotest.(check bool) "inf to float" true (Ranking.rank_to_float r = infinity);
  match Ranking.top_k gr ~output_matches:(Match_relation.matches m 0) ~k:2 with
  | [ (first, _); (second, _) ] ->
    Alcotest.(check int) "tie broken by id" Expfinder_workload.Collab.walt first;
    Alcotest.(check int) "second" Expfinder_workload.Collab.bob second
  | _ -> Alcotest.fail "expected two"

let test_rank_compare () =
  let open Ranking in
  Alcotest.(check bool) "9/5 < 7/3" true (compare_rank { num = 9; den = 5 } { num = 7; den = 3 } < 0);
  Alcotest.(check bool) "equal cross" true (compare_rank { num = 1; den = 2 } { num = 2; den = 4 } = 0);
  Alcotest.(check bool) "finite < inf" true (compare_rank { num = 100; den = 1 } { num = 0; den = 0 } < 0)

let test_top_k_sizes () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let m = Bounded_sim.run q g in
  let gr = Result_graph.build q g m in
  let matches = Match_relation.matches m 0 in
  Alcotest.(check int) "k=0" 0 (List.length (Ranking.top_k gr ~output_matches:matches ~k:0));
  Alcotest.(check int) "k=1" 1 (List.length (Ranking.top_k gr ~output_matches:matches ~k:1));
  Alcotest.(check int) "k larger than matches" 2
    (List.length (Ranking.top_k gr ~output_matches:matches ~k:10));
  Alcotest.check_raises "k<0" (Invalid_argument "Ranking.top_k") (fun () ->
      ignore (Ranking.top_k gr ~output_matches:matches ~k:(-1)))

(* Reference ranking straight from the definition: all-pairs distances
   over the result graph's edges by Floyd-Warshall, then f(u_o, v)
   summed over every other node that reaches v and every other node v
   reaches, one count per direction (the denominator's reading in
   ranking.mli).  Sorted by exact rational comparison, +inf last, ties
   by node id. *)
let reference_ranks gr output_matches =
  let nodes = Array.of_list (Result_graph.data_nodes gr) in
  let n = Array.length nodes in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) nodes;
  let inf = max_int in
  let dist = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else inf)) in
  Result_graph.iter_edges gr (fun v v' d ->
      let i = Hashtbl.find pos v and j = Hashtbl.find pos v' in
      if d < dist.(i).(j) then dist.(i).(j) <- d);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if dist.(i).(k) < inf && dist.(k).(j) < inf && dist.(i).(k) + dist.(k).(j) < dist.(i).(j)
        then dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
      done
    done
  done;
  let rank v =
    let i = Hashtbl.find pos v in
    let num = ref 0 and den = ref 0 in
    for j = 0 to n - 1 do
      if j <> i then
        List.iter
          (fun d ->
            if d < inf then begin
              num := !num + d;
              incr den
            end)
          [ dist.(j).(i); dist.(i).(j) ]
    done;
    { Ranking.num = !num; den = !den }
  in
  let before (v1, (r1 : Ranking.rank)) (v2, (r2 : Ranking.rank)) =
    let c =
      match (r1.den, r2.den) with
      | 0, 0 -> 0
      | 0, _ -> 1
      | _, 0 -> -1
      | _ -> compare (r1.num * r2.den) (r2.num * r1.den)
    in
    if c <> 0 then c else compare v1 v2
  in
  List.sort before (List.map (fun v -> (v, rank v)) output_matches)

let prop_ranking_matches_floyd_warshall seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:(Prng.bool rng) in
  let m = Bounded_sim.run pattern g in
  let gr = Result_graph.build pattern g m in
  let matches = Match_relation.matches m (Pattern.output pattern) in
  let expected = reference_ranks gr matches in
  let size = List.length matches in
  List.for_all (fun (v, r) -> Ranking.rank_of gr v = r) expected
  && List.for_all
       (fun k ->
         Ranking.top_k gr ~output_matches:matches ~k = List.filteri (fun i _ -> i < k) expected)
       [ 0; 1; 2; size; size + 3; Prng.int rng (size + 1) ]

(* The ranking kernel's allocation is one scratch for the whole call plus
   O(1) words per match: it must not grow with |M| x |V_r|, which is what
   two fresh distance arrays per Dijkstra run cost. *)
let test_top_k_allocation_bound () =
  let g = Snapshot.of_digraph (Expfinder_workload.Twitter.generate (Prng.create 42) ~n:10000) in
  let node name pred = { Pattern.name; label = Some (Label.of_string name); pred } in
  let p =
    Pattern.make_exn
      ~nodes:[| node "ML" Predicate.always; node "DB" Predicate.always |]
      ~edges:[ (0, 1, Pattern.Bounded 3) ]
      ~output:0
  in
  let m = Bounded_sim.run p g in
  let gr = Result_graph.build p g m in
  let matches = Match_relation.matches m 0 in
  let v_r = Result_graph.node_count gr and e_r = Result_graph.edge_count gr in
  let m_o = List.length matches in
  Alcotest.(check bool) "result graph has >= 2000 nodes" true (v_r >= 2000);
  Alcotest.(check bool) "at least 500 output matches" true (m_o >= 500);
  (* [Gc.minor_words] is exact on OCaml 5; the counters' minor field is
     not, so only their direct major allocations (net of promotions,
     already counted as minor words) are added. *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  let top = Ranking.top_k gr ~output_matches:matches ~k:10 in
  let allocated = words () -. before in
  Alcotest.(check int) "ten experts" 10 (List.length top);
  let budget = 16 * (v_r + e_r + m_o) in
  if allocated > float_of_int budget then
    Alcotest.failf "top_k allocated %.0f words, over the %d-word budget 16 x (|V_r| + |E_r| + |M|)"
      allocated budget

let prop_result_graph_weights_within_bounds seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  let m = Bounded_sim.run pattern g in
  let gr = Result_graph.build pattern g m in
  let max_bound = Option.value ~default:1 (Pattern.max_bound pattern) in
  let ok = ref true in
  Result_graph.iter_edges gr (fun _ _ d -> if d < 1 || d > max_bound then ok := false);
  !ok

(* --- ball index ---------------------------------------------------------- *)

let test_ball_index_contents () =
  let rng = Prng.create 17 in
  let g = Snapshot.of_digraph (random_graph rng) in
  let idx = Ball_index.build g ~radius:3 in
  let scratch = Distance.make_scratch g in
  for v = 0 to Snapshot.node_count g - 1 do
    let from_bfs = Hashtbl.create 8 in
    Distance.ball scratch g v 3 (fun w d -> Hashtbl.replace from_bfs w d);
    let from_idx = Hashtbl.create 8 in
    Ball_index.iter_ball idx v (fun w d -> Hashtbl.replace from_idx w d);
    Alcotest.(check int)
      (Printf.sprintf "ball size of %d" v)
      (Hashtbl.length from_bfs) (Hashtbl.length from_idx);
    Hashtbl.iter
      (fun w d ->
        Alcotest.(check (option int)) "distance agrees" (Some d) (Hashtbl.find_opt from_idx w))
      from_bfs
  done

let test_ball_index_supports () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let idx = Ball_index.build g ~radius:3 in
  Alcotest.(check bool) "paper query supported" true
    (Ball_index.supports idx (Expfinder_workload.Collab.query ()));
  Alcotest.(check bool) "unbounded unsupported" false
    (Ball_index.supports idx (Expfinder_workload.Collab.q3 ()));
  let idx1 = Ball_index.build g ~radius:1 in
  Alcotest.(check bool) "radius too small" false
    (Ball_index.supports idx1 (Expfinder_workload.Collab.query ()));
  Alcotest.check_raises "unsupported evaluate raises"
    (Invalid_argument "Ball_index.evaluate: pattern bounds exceed the index radius")
    (fun () ->
      ignore (Ball_index.evaluate idx1 (Expfinder_workload.Collab.query ()) g))

let prop_ball_index_evaluate seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  let idx = Ball_index.build g ~radius:3 in
  if not (Ball_index.supports idx pattern) then true
  else Match_relation.equal (Ball_index.evaluate idx pattern g) (Bounded_sim.run pattern g)

(* --- roll-up / drill-down ---------------------------------------------- *)

let fig1_result_graph () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let m = Bounded_sim.run q g in
  (g, q, Result_graph.build q g m)

let test_roll_up () =
  let _, q, gr = fig1_result_graph () in
  let s = Result_graph.roll_up q gr in
  Alcotest.(check (list int)) "match counts" [ 2; 3; 1; 1 ]
    (Array.to_list s.Result_graph.match_counts);
  let stats_for u u' =
    List.find
      (fun e -> e.Result_graph.source = u && e.Result_graph.target = u')
      s.Result_graph.edge_summaries
  in
  let sa_sd = stats_for 0 1 in
  Alcotest.(check int) "SA->SD realised" 3 sa_sd.Result_graph.realised;
  Alcotest.(check int) "SA->SD min" 1 sa_sd.Result_graph.min_dist;
  let sa_ba = stats_for 0 2 in
  Alcotest.(check int) "SA->BA realised" 2 sa_ba.Result_graph.realised;
  Alcotest.(check int) "SA->BA min" 3 sa_ba.Result_graph.min_dist;
  let st_ba = stats_for 3 2 in
  Alcotest.(check int) "ST->BA realised" 1 st_ba.Result_graph.realised;
  (* Rendering succeeds and is non-trivial. *)
  let text = Format.asprintf "%a" (Result_graph.pp_summary q) s in
  Alcotest.(check bool) "summary renders" true (String.length text > 50)

let test_drill_down () =
  let g, q, gr = fig1_result_graph () in
  let details = Result_graph.drill_down q g gr 0 in
  (match details with
  | [ walt; bob ] ->
    Alcotest.(check string) "Walt first" "Walt" walt.Result_graph.display;
    Alcotest.(check string) "then Bob" "Bob" bob.Result_graph.display;
    Alcotest.(check (list (pair int int)))
      "Bob's result successors"
      [ (Expfinder_workload.Collab.jean, 3); (Expfinder_workload.Collab.dan, 1);
        (Expfinder_workload.Collab.pat, 2) ]
      (List.sort compare bob.Result_graph.out_edges)
  | _ -> Alcotest.fail "expected exactly Walt and Bob");
  Alcotest.check_raises "bad pattern node" (Invalid_argument "Result_graph.drill_down")
    (fun () -> ignore (Result_graph.drill_down q g gr 9))

(* --- Refinement counter totals ---------------------------------------------- *)

(* Exact [sim.*]/[bsim.*]/[sparse.*] counter deltas of every refinement
   entry point on one fixed seeded graph and bounded query.  The loops
   tally locally and flush once per call; these goldens pin the totals
   so a rewrite of a loop cannot silently change what it reports. *)
let test_refinement_counter_golden () =
  let rng = Prng.create 2026 in
  let g =
    Snapshot.of_digraph
      (Generators.erdos_renyi rng ~n:120 ~m:360 (fun _ ->
           (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ])))
  in
  let node name =
    { Pattern.name; label = Some (Label.of_string name); pred = Predicate.always }
  in
  let q =
    Pattern.make_exn
      ~nodes:[| node "A"; node "B"; node "C" |]
      ~edges:[ (0, 1, Pattern.Bounded 2); (1, 2, Pattern.Bounded 1); (2, 0, Pattern.Bounded 2) ]
      ~output:0
  in
  let initial = Candidates.compute q g in
  let area = Bitset.create (Snapshot.node_count g) in
  for v = 0 to Snapshot.node_count g - 1 do
    if v mod 3 <> 0 then Bitset.add area v
  done;
  let module Snap_refine = Sparse_refine.Make (Snapshot) in
  let module Telemetry = Expfinder_telemetry in
  let refine_counters f =
    let before = Telemetry.Metrics.counters_snapshot () in
    let m = f () in
    let after = Telemetry.Metrics.counters_snapshot () in
    ( Match_relation.total m,
      Telemetry.Metrics.delta ~before ~after
      |> List.filter (fun (name, _) ->
             List.exists
               (fun prefix -> String.starts_with ~prefix name)
               [ "sim."; "bsim."; "sparse." ]) )
  in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let observed =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was)
      (fun () ->
        [
          refine_counters (fun () ->
              Simulation.run_constrained q g ~initial ~mutable_set:None);
          refine_counters (fun () ->
              Simulation.run_constrained q g ~initial ~mutable_set:(Some area));
          refine_counters (fun () ->
              Bounded_sim.run_constrained ~strategy:Bounded_sim.Counters q g ~initial
                ~mutable_set:None);
          refine_counters (fun () ->
              Bounded_sim.run_constrained ~strategy:Bounded_sim.Counters q g ~initial
                ~mutable_set:(Some area));
          refine_counters (fun () ->
              Bounded_sim.run_constrained ~strategy:Bounded_sim.Naive q g ~initial
                ~mutable_set:None);
          refine_counters (fun () ->
              Bounded_sim.run_constrained ~strategy:Bounded_sim.Naive q g ~initial
                ~mutable_set:(Some area));
          refine_counters (fun () -> Snap_refine.bounded q g ~initial ~area);
        ])
  in
  Alcotest.(check (list (pair int (list (pair string int)))))
    "pairs kept and counter deltas per entry point"
    [
      (30, [ ("sim.removals", 90); ("sim.worklist_pops", 90) ]);
      (85, [ ("sparse.removals", 35); ("sparse.worklist_pops", 35) ]);
      ( 94,
        [ ("bsim.ball_expansions", 146); ("bsim.removals", 26); ("bsim.worklist_pops", 26) ]
      );
      ( 102,
        [ ("bsim.ball_expansions", 138); ("bsim.removals", 18); ("bsim.worklist_pops", 18) ]
      );
      (94, [ ("bsim.removals", 26); ("bsim.sweeps", 4) ]);
      (102, [ ("bsim.removals", 18); ("bsim.sweeps", 3) ]);
      ( 102,
        [
          ("sparse.ball_expansions", 98); ("sparse.removals", 18); ("sparse.worklist_pops", 18);
        ] );
    ]
    observed

let qcheck_cases =
  [
    QCheck.Test.make ~count:300 ~name:"digest = list-based reference" QCheck.small_int
      (fun s -> prop_digest_matches_reference (s + 1));
    QCheck.Test.make ~count:100 ~name:"simulation = reference" QCheck.small_int (fun s ->
        prop_simulation_matches_reference (s + 1));
    QCheck.Test.make ~count:100 ~name:"bsim counters = reference" QCheck.small_int (fun s ->
        prop_bsim_counters_matches_reference (s + 1));
    QCheck.Test.make ~count:60 ~name:"bsim naive (unbounded) = reference" QCheck.small_int
      (fun s -> prop_bsim_naive_matches_reference (s + 1));
    QCheck.Test.make ~count:60 ~name:"bsim strategies agree" QCheck.small_int (fun s ->
        prop_bsim_strategies_agree (s + 1));
    QCheck.Test.make ~count:60 ~name:"bound-1 bsim = simulation" QCheck.small_int (fun s ->
        prop_bound1_equals_simulation (s + 1));
    QCheck.Test.make ~count:60 ~name:"kernel is consistent" QCheck.small_int (fun s ->
        prop_kernel_consistent (s + 1));
    QCheck.Test.make ~count:60 ~name:"relaxing bounds grows matches" QCheck.small_int
      (fun s -> prop_relaxing_bounds_grows_matches (s + 1));
    QCheck.Test.make ~count:60 ~name:"result-graph weights within bounds" QCheck.small_int
      (fun s -> prop_result_graph_weights_within_bounds (s + 1));
    QCheck.Test.make ~count:200 ~name:"ranking = Floyd-Warshall reference" QCheck.small_int
      (fun s -> prop_ranking_matches_floyd_warshall (s + 1));
    QCheck.Test.make ~count:60 ~name:"ball-index evaluate = bsim" QCheck.small_int
      (fun s -> prop_ball_index_evaluate (s + 1));
  ]

let () =
  Alcotest.run "core"
    [
      ( "match_relation",
        [
          Alcotest.test_case "operations" `Quick test_match_relation_ops;
          Alcotest.test_case "digest golden" `Quick test_digest_golden;
          Alcotest.test_case "candidates" `Quick test_candidates_respect_predicates;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "no match" `Quick test_no_match_is_untotal;
          Alcotest.test_case "single node" `Quick test_single_node_pattern;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
        ] );
      ( "result_graph",
        [
          Alcotest.test_case "empty relation" `Quick test_result_graph_empty_relation;
          Alcotest.test_case "roles" `Quick test_result_graph_roles;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "isolated = infinite" `Quick test_rank_isolated_node_infinite;
          Alcotest.test_case "compare" `Quick test_rank_compare;
          Alcotest.test_case "top-k sizes" `Quick test_top_k_sizes;
          Alcotest.test_case "top-k allocation bound" `Quick test_top_k_allocation_bound;
        ] );
      ( "views",
        [
          Alcotest.test_case "roll up" `Quick test_roll_up;
          Alcotest.test_case "drill down" `Quick test_drill_down;
        ] );
      ( "ball_index",
        [
          Alcotest.test_case "contents = BFS" `Quick test_ball_index_contents;
          Alcotest.test_case "supports" `Quick test_ball_index_supports;
        ] );
      ( "counters",
        [
          Alcotest.test_case "refinement counter golden" `Quick
            test_refinement_counter_golden;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
