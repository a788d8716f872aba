open Expfinder_graph
open Expfinder_pattern

type t = {
  wg : Wgraph.t;
  node_of_index : int array;
  index : int array; (* data node -> compact index, -1 when unmatched *)
  pnodes_of : int list array; (* per compact index *)
}

let build pattern g m =
  let psize = Pattern.size pattern in
  (* Collect matched data nodes into a compact index space. *)
  let index = Array.make (Snapshot.node_count g) (-1) in
  let order = Vec.create ~dummy:(-1) () in
  for u = 0 to psize - 1 do
    List.iter
      (fun v ->
        if index.(v) < 0 then begin
          index.(v) <- Vec.length order;
          Vec.push order v
        end)
      (Match_relation.matches m u)
  done;
  let node_of_index = Vec.to_array order in
  let count = Array.length node_of_index in
  let pnodes_of = Array.make (max count 1) [] in
  for u = psize - 1 downto 0 do
    List.iter
      (fun v -> pnodes_of.(index.(v)) <- u :: pnodes_of.(index.(v)))
      (Match_relation.matches m u)
  done;
  let src = Vec.create ~dummy:0 () and dst = Vec.create ~dummy:0 () in
  let weight = Vec.create ~dummy:0 () in
  let scratch = Distance.make_scratch g in
  List.iter
    (fun (u, u', b) ->
      let k = match b with Pattern.Bounded k -> k | Pattern.Unbounded -> Distance.eccentricity_bound g in
      let targets = Match_relation.matches_set m u' in
      List.iter
        (fun v ->
          let vi = index.(v) in
          Distance.ball scratch g v k (fun w d ->
              if Bitset.mem targets w then begin
                Vec.push src vi;
                Vec.push dst index.(w);
                Vec.push weight d
              end))
        (Match_relation.matches m u))
    (Pattern.edges pattern);
  let wg =
    Wgraph.of_edges count ~src:(Vec.to_array src) ~dst:(Vec.to_array dst)
      ~weight:(Vec.to_array weight)
  in
  { wg; node_of_index; index; pnodes_of }

let node_count t = Array.length t.node_of_index

let edge_count t = Wgraph.edge_count t.wg

let data_nodes t = List.sort compare (Array.to_list t.node_of_index)

let index_of t v =
  if v >= 0 && v < Array.length t.index && t.index.(v) >= 0 then Some t.index.(v) else None

let mem_data_node t v = Option.is_some (index_of t v)

let data_node_of t i =
  if i < 0 || i >= node_count t then invalid_arg "Result_graph.data_node_of";
  t.node_of_index.(i)

let pattern_nodes_of t v =
  match index_of t v with
  | None -> []
  | Some i -> t.pnodes_of.(i)

let wgraph t = t.wg

let iter_edges t f =
  Wgraph.iter_edges t.wg (fun i j d -> f t.node_of_index.(i) t.node_of_index.(j) d)

let weight t v v' =
  match (index_of t v, index_of t v') with
  | Some i, Some j -> Wgraph.weight t.wg i j
  | _ -> None

let to_dot ?(name = "Gr") ?(highlight = []) pattern g t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=box, fontname=\"Helvetica\"];\n";
  let hl = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace hl v ()) highlight;
  Array.iteri
    (fun i v ->
      let roles =
        String.concat "," (List.map (Pattern.name pattern) t.pnodes_of.(i))
      in
      let display =
        match Attrs.find (Snapshot.attrs g v) "name" with
        | Some (Attr.String s) -> s
        | _ -> Printf.sprintf "#%d" v
      in
      let style = if Hashtbl.mem hl v then ", style=filled, fillcolor=red" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  r%d [label=\"%s\\n(%s:%s)\"%s];\n" i display roles
           (Label.to_string (Snapshot.label g v)) style))
    t.node_of_index;
  Wgraph.iter_edges t.wg (fun i j d ->
      Buffer.add_string buf (Printf.sprintf "  r%d -> r%d [label=\"%d\"];\n" i j d));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

type edge_stats = {
  source : int;
  target : int;
  realised : int;
  min_dist : int;
  avg_dist : float;
}

type summary = { match_counts : int array; edge_summaries : edge_stats list }

let roll_up pattern t =
  let psize = Pattern.size pattern in
  let match_counts = Array.make psize 0 in
  Array.iteri
    (fun i _ -> List.iter (fun u -> match_counts.(u) <- match_counts.(u) + 1) t.pnodes_of.(i))
    t.node_of_index;
  let edge_summaries =
    List.map
      (fun (u, u', b) ->
        let bound =
          match b with Pattern.Bounded k -> k | Pattern.Unbounded -> max_int
        in
        let realised = ref 0 and total = ref 0 and min_dist = ref max_int in
        Wgraph.iter_edges t.wg (fun i j d ->
            if
              d <= bound
              && List.mem u t.pnodes_of.(i)
              && List.mem u' t.pnodes_of.(j)
            then begin
              incr realised;
              total := !total + d;
              if d < !min_dist then min_dist := d
            end);
        {
          source = u;
          target = u';
          realised = !realised;
          min_dist = (if !realised = 0 then 0 else !min_dist);
          avg_dist =
            (if !realised = 0 then 0.0 else float_of_int !total /. float_of_int !realised);
        })
      (Pattern.edges pattern)
  in
  { match_counts; edge_summaries }

let pp_summary pattern ppf s =
  Format.fprintf ppf "@[<v>matches:";
  Array.iteri
    (fun u c -> Format.fprintf ppf "@,  %-12s %d" (Pattern.name pattern u) c)
    s.match_counts;
  Format.fprintf ppf "@,pattern edges:";
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  %s -> %s: %d witness edges%s" (Pattern.name pattern e.source)
        (Pattern.name pattern e.target) e.realised
        (if e.realised = 0 then ""
         else Format.asprintf " (min %d, avg %.1f)" e.min_dist e.avg_dist))
    s.edge_summaries;
  Format.fprintf ppf "@]"

type detail = {
  data_node : int;
  display : string;
  roles : int list;
  out_edges : (int * int) list;
  in_edges : (int * int) list;
}

let drill_down pattern g t u =
  if u < 0 || u >= Pattern.size pattern then invalid_arg "Result_graph.drill_down";
  let details = ref [] in
  Array.iteri
    (fun i v ->
      if List.mem u t.pnodes_of.(i) then begin
        let display =
          match Attrs.find (Snapshot.attrs g v) "name" with
          | Some (Attr.String s) -> s
          | Some _ | None -> Printf.sprintf "#%d" v
        in
        let out_edges = ref [] and in_edges = ref [] in
        Wgraph.iter_succ t.wg i (fun j d -> out_edges := (t.node_of_index.(j), d) :: !out_edges);
        Wgraph.iter_pred t.wg i (fun j d -> in_edges := (t.node_of_index.(j), d) :: !in_edges);
        details :=
          {
            data_node = v;
            display;
            roles = t.pnodes_of.(i);
            out_edges = List.sort compare !out_edges;
            in_edges = List.sort compare !in_edges;
          }
          :: !details
      end)
    t.node_of_index;
  List.sort (fun a b -> compare a.data_node b.data_node) !details

let pp_detail ppf d =
  Format.fprintf ppf "@[<v>%s (node %d)" d.display d.data_node;
  List.iter (fun (v, dist) -> Format.fprintf ppf "@,  -> node %d (distance %d)" v dist) d.out_edges;
  List.iter (fun (v, dist) -> Format.fprintf ppf "@,  <- node %d (distance %d)" v dist) d.in_edges;
  Format.fprintf ppf "@]"
