(** Traffic demands and matrix generation.

    A *traffic* in the paper is a weighted path (§4.1) — or, with
    multi-routing (§5), a set of weighted paths between the same
    source/destination pair. This module generates the random traffic
    matrices of §4.4: volumes between all ordered endpoint pairs,
    heavy-tailed, with a few "preferred pairs of high traffic" so the
    distribution is deliberately non-uniform, routed on (possibly
    asymmetric) shortest paths. The generators answer every pair of a
    source from one {!Monpos_graph.Paths.search} tree, single-path and
    ECMP alike, so a matrix costs one search per distinct source. *)

type route = {
  path : Monpos_graph.Paths.path;  (** the links the traffic crosses *)
  volume : float;  (** bandwidth routed along this path *)
}

type demand = {
  src : Monpos_graph.Graph.node;
  dst : Monpos_graph.Graph.node;
  volume : float;  (** total bandwidth of the traffic *)
  routes : route list;
      (** singleton for single-path routing; several equal-cost routes
          under ECMP multi-routing (volumes sum to [volume]) *)
}

type matrix = demand array
(** One demand per (ordered) traffic pair. *)

type gen_params = {
  hot_pairs : int;  (** number of preferred high-traffic pairs *)
  hot_factor : float;  (** volume multiplier on preferred pairs *)
  pareto_alpha : float;  (** tail index of the volume distribution *)
  base_volume : float;  (** minimum volume (Pareto scale) *)
  max_ecmp_paths : int;  (** 1 = single-path routing; >1 enables ECMP *)
}

val default_gen : gen_params
(** hot_pairs = 4, hot_factor = 20., pareto_alpha = 1.3,
    base_volume = 1., max_ecmp_paths = 1. *)

val generate :
  ?params:gen_params ->
  Monpos_graph.Graph.t ->
  endpoints:Monpos_graph.Graph.node list ->
  seed:int ->
  matrix
(** Demands between every ordered pair of [endpoints], routed on
    hop-count shortest paths (ties broken deterministically; forward
    and reverse routes are computed independently, so routing may be
    asymmetric as in §4.4). Unreachable pairs are skipped. *)

val generate_gravity :
  ?pareto_alpha:float ->
  ?total_volume:float ->
  ?max_ecmp_paths:int ->
  Monpos_graph.Graph.t ->
  endpoints:Monpos_graph.Graph.node list ->
  seed:int ->
  matrix
(** Gravity-model matrix (the standard alternative to hot-pair
    boosting, cf. the backbone traffic analyses the paper cites):
    every endpoint gets a heavy-tailed mass [m_i]; the demand from
    [i] to [j] is [total_volume · m_i m_j / (Σm)²]. Defaults:
    [pareto_alpha = 1.2], [total_volume = 1000.], single-path
    routing. *)

val generate_pairs :
  ?params:gen_params ->
  Monpos_graph.Graph.t ->
  pairs:(Monpos_graph.Graph.node * Monpos_graph.Graph.node) list ->
  seed:int ->
  matrix
(** Same, for an explicit pair list. *)

val total_volume : matrix -> float
(** Sum of demand volumes. *)

val loads : Monpos_graph.Graph.t -> matrix -> float array
(** Per-edge load: the sum of route volumes crossing each link (§4.1's
    "load of a link"). *)

val demand_edges : demand -> Monpos_graph.Graph.edge list
(** Deduplicated set of edges used by any route of the demand. *)

val scale_volumes : matrix -> factor:(int -> float) -> matrix
(** [scale_volumes m ~factor] multiplies demand [i]'s volume (and its
    routes') by [factor i]. Used by the §5.4 dynamic-traffic drift
    model. *)

val drift : matrix -> seed:int -> sigma:float -> matrix
(** Multiplicative log-normal-ish volume noise: each demand's volume is
    multiplied by [exp (sigma * z)] with [z] standard-normal-ish
    (sum of uniforms), keeping routes and paths fixed. Models the
    traffic evolution of §5.4 between re-optimizations. *)
