(* Workload configurations and seeded op streams.

   Everything a run sends to the program is generated here before any
   timing starts: the pinned data graph, the pinned pattern pool, and
   from the seed the op stream over that pool.  Update batches are built
   on a mirror graph the benchmark owns, advancing it batch by batch, so
   each batch is drawn against the graph state it will be applied to. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_incremental
module Twitter = Expfinder_workload.Twitter
module Queries = Expfinder_workload.Queries
module Json = Expfinder_telemetry.Json

(* Shared by every workload. *)
let zipf_s = 1.0
let update_edges = 4
let cache_capacity = 64

(* How ops pick their patterns from the pool.  [Zipf]: each op draws
   one, so hot patterns repeat.  [Cycle]: the pool, split into ops, is
   sent round after round in one seeded order; the pool outnumbers the
   cache, so under LRU every pattern misses and is evaluated afresh. *)
type draw = Zipf | Cycle

type config = {
  name : string;
  nodes : int;  (** |V| of the generated follower graph *)
  pool : int;  (** distinct patterns in the pinned pool *)
  draw : draw;
  update_every : int;  (** every n-th op is an update; [0]: no updates *)
  registered : int;  (** queries registered for incremental maintenance *)
  compression : bool;  (** maintain a compressed graph over [Queries.atom_universe] *)
  batch : int;  (** patterns per batch op; [0]: no batches *)
  served : bool;  (** driven over the socket server rather than in-process *)
  top_k : int;  (** [k] for [Engine.top_k]; [0]: no top-K ops *)
  max_rate : int;  (** ops per second the pre-generated stream covers *)
}

let base =
  {
    name = "";
    nodes = 10_000;
    pool = 0;
    draw = Zipf;
    update_every = 0;
    registered = 0;
    compression = false;
    batch = 0;
    served = false;
    top_k = 0;
    max_rate = 1;
  }

let configs =
  [
    { base with name = "hot_read"; nodes = 20_000; pool = 48; served = true; max_rate = 3000 };
    { base with name = "expert_search"; pool = 128; draw = Cycle; top_k = 10; max_rate = 300 };
    {
      base with
      name = "read_write_mix";
      pool = 96;
      update_every = 10;
      registered = 4;
      compression = true;
      served = true;
      max_rate = 800;
    };
    (* [Engine.evaluate_batch ~domains:1]: at [~domains:2] the spread of
       this workload's throughput and p90 between seeds on a two-core
       host (0.25 and 0.42 of the median over ten seeds) exceeds any
       bound worth gating on, so the two-domain fan-out is reported by the
       per-layer probes instead. *)
    { base with name = "batch_fanout"; pool = 288; draw = Cycle; batch = 12; max_rate = 30 };
  ]

let config_of_name name = List.find_opt (fun c -> c.name = name) configs

(* The data graph is pinned, like the fixed Twitter fraction of the
   paper's experiments: the seed varies the patterns and the op stream
   on it, not the graph.  (Hub sizes of the generated follower graph
   differ enough between generator seeds to move query cost by half.)
   Rebuilding it is how the oracle and the probes get their mirrors. *)
let graph_seed = 1

(* The pattern pools are pinned too: under Zipf the hottest few
   patterns set the median, and their answer sizes (which a cache hit
   copies and digests) differ twofold between drawn pools; a cycled pool
   of fresh draws moves the median by a tenth between seeds.  The seed
   draws the op stream over the pinned pool: the Zipf sequence, the
   cycle order and the update batches. *)
let pool_seed = 1

let describe c =
  Printf.sprintf
    "graph=twitter(seed=%d) nodes=%d pool=%d pool_seed=%d draw=%s update_every=%d \
     update_edges=%d cache_capacity=%d registered=%d compression=%b batch=%d batch_domains=1 \
     served=%b top_k=%d connections=1 loop=closed"
    graph_seed c.nodes c.pool pool_seed
    (match c.draw with Zipf -> Printf.sprintf "zipf(s=%.1f)" zipf_s | Cycle -> "cycle")
    c.update_every update_edges cache_capacity c.registered c.compression c.batch c.served c.top_k

type op =
  | Query of int  (** served query of pattern [i] *)
  | Update of Update.t list  (** served update batch *)
  | Top_k of int  (** [Engine.top_k] of pattern [i] *)
  | Batch of int array  (** [Engine.evaluate_batch] of these patterns *)

type t = {
  config : config;
  seed : int;
  patterns : Pattern.t array;
  texts : string array;  (** [Pattern_io.to_string] of each pattern: what the server is sent *)
  ops : op array;
  round : int;  (** ops in one round of a [Cycle] stream; [0] for [Zipf] *)
  warmup : op array;  (** run during set-up: the round's last ops, which fill the cache *)
}

let graph c = Twitter.generate (Prng.create graph_seed) ~n:c.nodes

(* [count] patterns with pairwise distinct fingerprints. *)
let distinct_patterns rng g count =
  let seen = Hashtbl.create count in
  let out = ref [] and found = ref 0 in
  while !found < count do
    Queries.workload rng ~count:(max 16 (count - !found)) ~simulation:false g
    |> List.iter (fun p ->
           let fp = Pattern.fingerprint p in
           if !found < count && not (Hashtbl.mem seen fp) then begin
             Hashtbl.add seen fp ();
             out := p :: !out;
             incr found
           end)
  done;
  Array.of_list (List.rev !out)

(* Zipf(s) over ranks [0, n): the cumulative distribution, then a
   binary search per draw. *)
let zipf_cdf n s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Prng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let generate c ~seed ~seconds =
  let g = graph c in
  let rng = Prng.create seed in
  let cap = max 1 (seconds * c.max_rate) in
  let patterns = distinct_patterns (Prng.create pool_seed) g c.pool in
  let ops, round, warmup =
    match c.draw with
    | Cycle ->
      let order = Array.init c.pool Fun.id in
      Prng.shuffle rng order;
      let round_ops =
        if c.batch > 0 then
          Array.init (c.pool / c.batch) (fun b -> Batch (Array.sub order (b * c.batch) c.batch))
        else Array.map (fun i -> Top_k i) order
      in
      let round = Array.length round_ops in
      let per_op = max 1 c.batch in
      let warm = min round ((cache_capacity + per_op - 1) / per_op) in
      (Array.init cap (fun i -> round_ops.(i mod round)), round, Array.sub round_ops (round - warm) warm)
    | Zipf ->
      let cdf = zipf_cdf c.pool zipf_s in
      let ops =
        Array.init cap (fun i ->
            if c.update_every > 0 && (i + 1) mod c.update_every = 0 then begin
              let batch = Update.random_mixed rng g update_edges in
              ignore (Update.apply_batch g batch : int);
              Update batch
            end
            else Query (zipf_draw rng cdf))
      in
      (* The served set-up sends every pool pattern once instead. *)
      (ops, 0, [||])
  in
  { config = c; seed; patterns; texts = Array.map Pattern_io.to_string patterns; ops; round; warmup }

(* The whole stream as text, for checking that a seed reproduces it. *)
let to_string s =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%s seed=%d %s\n" s.config.name s.seed (describe s.config);
  Array.iter (fun t -> Printf.bprintf b "pattern %S\n" t) s.texts;
  let op = function
      | Query i -> Printf.bprintf b "query %d\n" i
      | Top_k i -> Printf.bprintf b "top_k %d\n" i
      | Batch idx ->
        Printf.bprintf b "batch %s\n"
          (String.concat " " (Array.to_list (Array.map string_of_int idx)))
      | Update batch ->
        Printf.bprintf b "update %s\n" (Json.to_string (Json.Arr (List.map Update.to_json batch)))
  in
  Printf.bprintf b "round %d\n" s.round;
  Array.iter (fun o -> Buffer.add_string b "warmup "; op o) s.warmup;
  Array.iter op s.ops;
  Buffer.contents b
