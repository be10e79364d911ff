(** Shortest-path machinery over {!Graph.t}.

    The paper routes each traffic on a shortest path computed by the
    ISP's interior routing (§4.4), possibly asymmetric, and §5
    considers multi-routed traffics (several equal-cost paths used for
    load balancing). This module provides deterministic Dijkstra,
    equal-cost multipath enumeration, Yen's k-shortest paths and
    connectivity helpers. *)

type path = {
  nodes : Graph.node list;  (** visited nodes, source first *)
  edges : Graph.edge list;  (** traversed edges, in order; length = nodes-1 *)
  cost : float;  (** sum of edge weights *)
}

val bfs_distances : Graph.t -> Graph.node -> int array
(** Hop distance from the source to every node; [-1] when
    unreachable. *)

val dijkstra :
  Graph.t ->
  weight:(Graph.edge -> float) ->
  Graph.node ->
  float array * Graph.edge option array
(** [dijkstra g ~weight s] returns (distances, parent edge toward [s]).
    Distances are [infinity] for unreachable nodes. Weights must be
    non-negative. Ties are resolved deterministically (first settled
    predecessor wins), so routing is reproducible across runs. *)

val shortest_path :
  Graph.t -> weight:(Graph.edge -> float) -> Graph.node -> Graph.node -> path option
(** Shortest path between two nodes, [None] when disconnected.
    [Some] with empty edges when source = target. *)

val all_shortest_paths :
  Graph.t ->
  weight:(Graph.edge -> float) ->
  max_paths:int ->
  Graph.node ->
  Graph.node ->
  path list
(** Every distinct minimum-cost path (the ECMP set), truncated to
    [max_paths]. Used for the multi-routed traffics of §5. *)

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
