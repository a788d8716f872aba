type node = int

(* One direction in CSR form: the edges leaving [v] sit at positions
   [off.(v) .. off.(v + 1) - 1] of [dst] (their heads) and [w] (their
   weights). *)
type csr = { off : int array; dst : int array; w : int array }

type t = { fwd : csr; rev : csr }

let node_count g = Array.length g.fwd.off - 1

let edge_count g = Array.length g.fwd.dst

let check_node n v = if v < 0 || v >= n then invalid_arg "Wgraph: unknown node"

(* Counting sort of the edges [key.(e) -> other.(e)] by [key]; stable, so
   each row keeps input order. *)
let group n key other weight =
  let m = Array.length key in
  let off = Array.make (n + 1) 0 in
  Array.iter (fun k -> off.(k + 1) <- off.(k + 1) + 1) key;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let next = Array.sub off 0 n in
  let dst = Array.make m 0 and w = Array.make m 0 in
  for e = 0 to m - 1 do
    let k = key.(e) in
    let p = next.(k) in
    dst.(p) <- other.(e);
    w.(p) <- weight.(e);
    next.(k) <- p + 1
  done;
  { off; dst; w }

(* Collapses repeated heads within each row to their first position,
   keeping the minimum weight.  [seen.(v) = u] marks [v] as already in
   row [u], at position [slot.(v)]; compaction happens in place since the
   write position never passes the read position. *)
let dedupe n c =
  let seen = Array.make n (-1) and slot = Array.make n 0 in
  let off = Array.make (n + 1) 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    off.(u) <- !k;
    for p = c.off.(u) to c.off.(u + 1) - 1 do
      let v = c.dst.(p) and wt = c.w.(p) in
      if seen.(v) = u then begin
        let q = slot.(v) in
        if wt < c.w.(q) then c.w.(q) <- wt
      end
      else begin
        seen.(v) <- u;
        slot.(v) <- !k;
        c.dst.(!k) <- v;
        c.w.(!k) <- wt;
        incr k
      end
    done
  done;
  off.(n) <- !k;
  { off; dst = Array.sub c.dst 0 !k; w = Array.sub c.w 0 !k }

let of_edges n ~src ~dst ~weight =
  let m = Array.length src in
  if n < 0 || Array.length dst <> m || Array.length weight <> m then invalid_arg "Wgraph.of_edges";
  for e = 0 to m - 1 do
    check_node n src.(e);
    check_node n dst.(e);
    if weight.(e) < 0 then invalid_arg "Wgraph.of_edges: negative weight"
  done;
  let fwd = dedupe n (group n src dst weight) in
  let tails = Array.make (Array.length fwd.dst) 0 in
  for u = 0 to n - 1 do
    Array.fill tails fwd.off.(u) (fwd.off.(u + 1) - fwd.off.(u)) u
  done;
  { fwd; rev = group n fwd.dst tails fwd.w }

let iter_row c v f =
  for p = c.off.(v) to c.off.(v + 1) - 1 do
    f c.dst.(p) c.w.(p)
  done

let weight g u v =
  check_node (node_count g) u;
  check_node (node_count g) v;
  let c = g.fwd in
  let rec find p =
    if p = c.off.(u + 1) then None else if c.dst.(p) = v then Some c.w.(p) else find (p + 1)
  in
  find c.off.(u)

let iter_succ g v f =
  check_node (node_count g) v;
  iter_row g.fwd v f

let iter_pred g v f =
  check_node (node_count g) v;
  iter_row g.rev v f

let iter_edges g f =
  for u = 0 to node_count g - 1 do
    iter_row g.fwd u (f u)
  done

let transpose g = { fwd = g.rev; rev = g.fwd }

(* --- Dijkstra ------------------------------------------------------------ *)

(* [dist.(v)] is [-1] between searches; a search records each node it
   touches in [touched] and resets exactly those on the way out, so it
   costs O(reached), not O(n).  The heap is a binary min-heap on [heap_d]
   with the node in [heap_v] at the same position.  A node is pushed only
   when its tentative distance strictly improves, at most once for the
   source and once per edge scan, so [m + 1] slots always suffice; an
   entry whose distance no longer equals [dist.(v)] is stale and skipped
   on pop. *)
type scratch = { dist : int array; touched : int array; heap_d : int array; heap_v : int array }

let make_scratch g =
  let n = node_count g and m = edge_count g in
  {
    dist = Array.make n (-1);
    touched = Array.make n 0;
    heap_d = Array.make (m + 1) 0;
    heap_v = Array.make (m + 1) 0;
  }

(* Inserts [(d, v)] into the heap of [size] entries. *)
let push s size d v =
  let hd = s.heap_d and hv = s.heap_v in
  let i = ref size in
  while !i > 0 && hd.((!i - 1) / 2) > d do
    let parent = (!i - 1) / 2 in
    hd.(!i) <- hd.(parent);
    hv.(!i) <- hv.(parent);
    i := parent
  done;
  hd.(!i) <- d;
  hv.(!i) <- v

(* Removes the minimum of a heap of [size + 1] entries (read by the
   caller at position 0 beforehand), leaving [size]. *)
let pop s size =
  let hd = s.heap_d and hv = s.heap_v in
  let d = hd.(size) and v = hv.(size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= size then sifting := false
    else begin
      let c = if l + 1 < size && hd.(l + 1) < hd.(l) then l + 1 else l in
      if hd.(c) < d then begin
        hd.(!i) <- hd.(c);
        hv.(!i) <- hv.(c);
        i := c
      end
      else sifting := false
    end
  done;
  hd.(!i) <- d;
  hv.(!i) <- v

let reset s reached =
  for i = 0 to reached - 1 do
    s.dist.(s.touched.(i)) <- -1
  done

let search s c src f =
  let n = Array.length c.off - 1 in
  check_node n src;
  if Array.length s.dist <> n || Array.length s.heap_d <= Array.length c.dst then
    invalid_arg "Wgraph: scratch made for another graph";
  let dist = s.dist and touched = s.touched in
  let reached = ref 1 and size = ref 1 in
  dist.(src) <- 0;
  touched.(0) <- src;
  push s 0 0 src;
  (try
     while !size > 0 do
       let d = s.heap_d.(0) and v = s.heap_v.(0) in
       decr size;
       pop s !size;
       if d = dist.(v) then begin
         f v d;
         for p = c.off.(v) to c.off.(v + 1) - 1 do
           let x = c.dst.(p) and dx = d + c.w.(p) in
           let old = dist.(x) in
           if old < 0 || dx < old then begin
             if old < 0 then begin
               touched.(!reached) <- x;
               incr reached
             end;
             dist.(x) <- dx;
             push s !size dx x;
             incr size
           end
         done
       end
     done
   with e ->
     reset s !reached;
     raise e);
  reset s !reached

let iter_distances s g src f = search s g.fwd src f

let iter_distances_rev s g src f = search s g.rev src f

let distances g c src =
  let dist = Array.make (node_count g) (-1) in
  search (make_scratch g) c src (fun v d -> dist.(v) <- d);
  dist

let dijkstra g src = distances g g.fwd src

let dijkstra_rev g src = distances g g.rev src
