(* Tests of the benchmark's own code: seeded streams, the percentile
   rule and failure accounting. *)

open Perfbench

(* The shipped configurations on a small graph, so the tests stay fast. *)
let small = List.map (fun (c : Stream.config) -> { c with nodes = 400 }) Stream.configs

let test_same_seed_same_stream () =
  List.iter
    (fun (c : Stream.config) ->
      let a = Stream.to_string (Stream.generate c ~seed:7 ~seconds:1) in
      let b = Stream.to_string (Stream.generate c ~seed:7 ~seconds:1) in
      let other = Stream.to_string (Stream.generate c ~seed:8 ~seconds:1) in
      Alcotest.(check string) (c.name ^ ": same seed, same bytes") a b;
      Alcotest.(check bool) (c.name ^ ": another seed, another stream") true (a <> other))
    small

let test_update_share () =
  let c = List.find (fun (c : Stream.config) -> c.name = "read_write_mix") small in
  let s = Stream.generate c ~seed:3 ~seconds:1 in
  let updates =
    Array.fold_left (fun n op -> match op with Stream.Update _ -> n + 1 | _ -> n) 0 s.ops
  in
  Alcotest.(check int) "one op in ten is an update" (Array.length s.ops / 10) updates

(* A cycled stream sends the whole pool once per round, in one seeded
   order, and is timed over whole rounds only. *)
let test_cycle_rounds () =
  List.iter
    (fun name ->
      let c = List.find (fun (c : Stream.config) -> c.name = name) small in
      let s = Stream.generate c ~seed:4 ~seconds:2 in
      let patterns_of = function
        | Stream.Top_k i -> [ i ]
        | Batch idx -> Array.to_list idx
        | Query _ | Update _ -> []
      in
      let round k = Array.to_list (Array.sub s.ops (k * s.round) s.round) in
      let sent = List.sort compare (List.concat_map patterns_of (round 0)) in
      Alcotest.(check (list int)) (name ^ ": a round sends the pool once") (List.init c.pool Fun.id) sent;
      Alcotest.(check bool) (name ^ ": rounds repeat") true (round 0 = round 1);
      Alcotest.(check bool) (name ^ ": warm-up ends the round") true
        (Array.to_list s.warmup
        = Array.to_list (Array.sub s.ops (s.round - Array.length s.warmup) (Array.length s.warmup)));
      let outcomes =
        Array.init ((2 * s.round) + 1) (fun _ ->
            { Runner.write = false; lat_us = 1.; cpu_us = 1.; reply = Ok Runner.Ack })
      in
      Alcotest.(check int) (name ^ ": timed over whole rounds") (2 * s.round)
        (Array.length (Bench.whole_rounds s outcomes)))
    [ "expert_search"; "batch_fanout" ]

let test_tail_percentile () =
  let check n expected =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) expected (Stats.tail_percentile n)
  in
  check 10_000 (Some 99.9);
  check 9_999 (Some 99.);
  check 1_000 (Some 99.);
  check 999 (Some 90.);
  check 100 (Some 90.);
  check 99 (Some 50.);
  check 20 (Some 50.);
  check 19 None;
  let a = Stats.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check (float 0.)) "nearest-rank p90 of 1..100" 90. (Stats.percentile a 90.);
  Alcotest.(check (float 0.)) "nearest-rank median of 1..100" 50. (Stats.median a)

let test_malformed_op_fails () =
  let c = List.find (fun (c : Stream.config) -> c.name = "hot_read") small in
  let s = { (Stream.generate c ~seed:5 ~seconds:1) with ops = [| Stream.Query 0; Query 1 |] } in
  let live = Runner.setup s ~socket:"test_perfbench.sock" in
  s.texts.(0) <- "expfinder-pattern 1\nnode 0 broken";
  let r = Bench.replay live ~seconds:30. in
  Alcotest.(check int) "both ops recorded" 2 (Array.length r.outcomes);
  Alcotest.(check bool) "the malformed op failed" true (Result.is_error r.outcomes.(0).reply);
  Alcotest.(check int) "counted as failed" 1 r.verdict.failed;
  Alcotest.(check int) "the well-formed op matches the oracle" 0 r.verdict.mismatches;
  let attempted, failed, correct = Bench.verdict_of [ r ] in
  Alcotest.(check (triple int int bool)) "verdict" (2, 1, false) (attempted, failed, correct)

let () =
  Alcotest.run "perfbench"
    [
      ( "stream",
        [
          Alcotest.test_case "same seed, byte-identical stream" `Quick test_same_seed_same_stream;
          Alcotest.test_case "update share" `Quick test_update_share;
          Alcotest.test_case "cycled rounds" `Quick test_cycle_rounds;
        ] );
      ("stats", [ Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile ]);
      ("accounting", [ Alcotest.test_case "malformed pattern is a failed op" `Quick test_malformed_op_fails ]);
    ]
