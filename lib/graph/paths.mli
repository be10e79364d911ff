(** Shortest-path machinery over {!Graph.t}.

    The paper routes each traffic on a shortest path computed by the
    ISP's interior routing (§4.4), possibly asymmetric, and §5
    considers multi-routed traffics (several equal-cost paths used for
    load balancing); the §6 probes follow shortest paths too. Every
    search here is one Dijkstra ({!search}), which fills a reusable
    shortest-path {!tree} from one source without allocating: the
    traffic generator and the probe computation answer all the pairs
    of a source from one tree. On top of it sit equal-cost multipath
    enumeration, Yen's k-shortest paths and connectivity helpers. *)

type path = {
  nodes : Graph.node list;  (** visited nodes, source first *)
  edges : Graph.edge list;  (** traversed edges, in order; length = nodes-1 *)
  cost : float;  (** sum of edge weights *)
}

val bfs_distances : Graph.t -> Graph.node -> int array
(** Hop distance from the source to every node; [-1] when
    unreachable. *)

type work
(** A search's edge weights, heap and empty ban mask. *)

type tree = private {
  graph : Graph.t;  (** the graph searched *)
  dist : float array;
      (** per node, the distance from the last source searched;
          [infinity] when unreached *)
  parent : Graph.edge array;
      (** per node, the edge of its shortest path that reaches it;
          [-1] at the source and at unreached nodes *)
  work : work;
}
(** A shortest-path tree over one graph and one weight, refilled by
    each {!search}. *)

val tree : Graph.t -> weight:(Graph.edge -> float) -> tree
(** [tree g ~weight] is an empty tree for [g] as it is now, with every
    edge's weight read once. Weights must be non-negative. *)

val search :
  ?banned_nodes:bool array ->
  ?banned_edges:bool array ->
  tree ->
  Graph.node ->
  unit
(** [search t s] refills [t] from source [s], never entering a banned
    node or crossing a banned edge (the source itself is not checked).
    It allocates nothing. Ties are resolved deterministically: nodes
    settle in the pop order of a binary heap ([Monpos_util.Heap]'s
    sift rules, one push per strict improvement, stale pops skipped)
    and a node keeps the parent that reached it first, so routing is
    reproducible across runs. A node or edge added to the graph after
    {!tree} raises [Invalid_argument] when the search meets it. *)

val path_to : tree -> Graph.node -> path option
(** The tree path from the last source searched to a node, [None] when
    unreached; the source's own path has no edges. *)

val all_paths_to : tree -> max_paths:int -> Graph.node -> path list
(** Every distinct minimum-cost path from the last source searched to
    a node (the ECMP set), truncated to [max_paths], predecessors
    tried in (node, edge) order. Used for the multi-routed traffics of
    §5. It walks every tight edge, so it ignores the masks of the
    search before it. Every path is simple: across zero-weight edges
    the set is every minimum-cost simple path, which may be many. *)

val shortest_path :
  Graph.t -> weight:(Graph.edge -> float) -> Graph.node -> Graph.node -> path option
(** One {!search} and {!path_to}: the shortest path between two nodes,
    [None] when disconnected, [Some] with empty edges when source =
    target. *)

val k_shortest_paths :
  Graph.t ->
  weight:(Graph.edge -> float) ->
  k:int ->
  Graph.node ->
  Graph.node ->
  path list
(** Yen's algorithm: up to [k] loopless paths by increasing cost.
    Supports the measurement-campaign extension (§7) where the
    operator re-routes traffic to improve monitorability. *)

val connected_components : Graph.t -> int array * int
(** (component id per node, number of components). *)

val is_connected : Graph.t -> bool
(** True iff the graph has at most one component (and is non-empty or
    empty-trivially true). *)
