open Expfinder_graph

type rank = { num : int; den : int }

let rank_to_float r = if r.den = 0 then infinity else float_of_int r.num /. float_of_int r.den

let compare_rank a b =
  match (a.den, b.den) with
  | 0, 0 -> 0
  | 0, _ -> 1
  | _, 0 -> -1
  | _ -> compare (a.num * b.den) (b.num * a.den)

let pp_rank ppf r =
  if r.den = 0 then Format.pp_print_string ppf "inf"
  else Format.fprintf ppf "%d/%d (%.2f)" r.num r.den (rank_to_float r)

(* The rank of compact node [i], summing distances as the nodes settle:
   one search from [i] and one to it, O(reached) work each.  The
   denominator counts a node once per direction of connectivity: the
   paper's own worked values (f(SA,Bob) = (1+1+2+3+2)/5 with only four
   distinct neighbours) force this reading of |V'_r|. *)
let rank_at scratch wg i =
  let num = ref 0 and den = ref 0 in
  let add j d =
    if j <> i then begin
      num := !num + d;
      incr den
    end
  in
  Wgraph.iter_distances scratch wg i add;
  Wgraph.iter_distances_rev scratch wg i add;
  { num = !num; den = !den }

let index_exn gr v =
  match Result_graph.index_of gr v with
  | None -> invalid_arg "Ranking.rank_of: node not in result graph"
  | Some i -> i

let rank_of gr v =
  let i = index_exn gr v in
  let wg = Result_graph.wgraph gr in
  rank_at (Wgraph.make_scratch wg) wg i

let top_k gr ~output_matches ~k =
  if k < 0 then invalid_arg "Ranking.top_k";
  let wg = Result_graph.wgraph gr in
  let scratch = Wgraph.make_scratch wg in
  let ranked =
    Array.of_list (List.map (fun v -> (v, rank_at scratch wg (index_exn gr v))) output_matches)
  in
  Array.sort
    (fun (v1, r1) (v2, r2) ->
      let c = compare_rank r1 r2 in
      if c <> 0 then c else Int.compare v1 v2)
    ranked;
  List.init (min k (Array.length ranked)) (Array.get ranked)
