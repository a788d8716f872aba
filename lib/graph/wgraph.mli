(** Small weighted directed graphs with integer edge weights.

    Result graphs mark each edge with the length of the shortest witness
    path, and the social-impact ranking needs weighted shortest distances
    over them; this module provides exactly that.  A graph is frozen once
    from an edge list into flat forward and reverse CSR int arrays
    (offsets, targets, weights), so it is immutable and its Dijkstra
    kernel walks plain int arrays with an unboxed int binary heap.  Nodes
    are dense integers chosen by the caller. *)

type t

type node = int

val of_edges : int -> src:node array -> dst:node array -> weight:int array -> t
(** [of_edges n ~src ~dst ~weight] is the graph on nodes [0 .. n-1] with
    one edge [src.(e) -> dst.(e)] of weight [weight.(e) >= 0] per index
    [e].  Repeated edges collapse to one that keeps the minimum weight.
    Each node's successors keep the order of their first occurrence.
    O(n + m) time.
    @raise Invalid_argument when [n < 0], the arrays differ in length, a
    node is outside [0 .. n-1] or a weight is negative. *)

val node_count : t -> int

val edge_count : t -> int
(** Distinct edges, after duplicates collapsed. *)

val weight : t -> node -> node -> int option

val iter_succ : t -> node -> (node -> int -> unit) -> unit

val iter_pred : t -> node -> (node -> int -> unit) -> unit

val iter_edges : t -> (node -> node -> int -> unit) -> unit
(** Edges grouped by source, ascending; within a source in
    {!iter_succ} order. *)

val dijkstra : t -> node -> int array
(** Shortest weighted distances from the source; [-1] when unreachable;
    [0] for the source itself. *)

val dijkstra_rev : t -> node -> int array
(** Shortest weighted distances *to* the source (over reversed edges). *)

val transpose : t -> t
(** The reversed graph, sharing this one's arrays (O(1)). *)

(** {1 Repeated searches}

    A scratch holds the working memory of one search: a distance array
    that each search resets only where it touched it (so a search costs
    O(reached), not O(n)) and an int heap of capacity [m + 1].  Many
    searches over one graph (the ranking runs two per output match) share
    one scratch and allocate nothing per search.  A scratch serves one
    search at a time: it is not shared between domains. *)

type scratch

val make_scratch : t -> scratch
(** Working memory for searches over this graph or its {!transpose}:
    O(n + m) words. *)

val iter_distances : scratch -> t -> node -> (node -> int -> unit) -> unit
(** [iter_distances s g src f] calls [f v d] once for every node [v]
    reachable from [src], in nondecreasing shortest distance [d]; the
    source itself comes first with [d = 0].  O((r + e) log e) for the [r]
    nodes reached and the [e] edges leaving them.
    @raise Invalid_argument when [src] is not a node or [s] was made for
    a graph of another size. *)

val iter_distances_rev : scratch -> t -> node -> (node -> int -> unit) -> unit
(** The same over reversed edges: every node that reaches [src]. *)
