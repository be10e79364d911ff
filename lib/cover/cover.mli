(** Weighted (partial) set cover.

    §4.2 of the paper proves the Passive Monitoring problem PPM(1)
    equivalent to Minimum Set Cover, and unweighted PPM(k) equivalent
    to Minimum Partial Cover. This module provides:

    - the greedy algorithm (largest uncovered weight first), whose
      [ln|S| − ln ln|S| + o(1)] guarantee (Slavik) transfers to
      passive monitoring;
    - an exact branch-and-bound solver, used as ground truth in tests
      and by [Monpos.Passive.solve_exact] and
      [Monpos.Active.place_ilp];
    - both directions of the Theorem 1 reduction, in {!Reduction}.

    Items carry weights (traffic volumes); [target] expresses partial
    covers: a solution must cover at least [target] total weight
    (default: the full weight, i.e. classic set cover). *)

type instance = {
  num_items : int;  (** universe size; items are [0 .. num_items-1] *)
  item_weight : float array;
      (** weight per item (all 1. for the unweighted problem) *)
  sets : int list array;  (** [sets.(j)] = items covered by set [j] *)
}

val make : num_items:int -> ?weights:float array -> int list array -> instance
(** Build an instance; [weights] defaults to all-ones. Raises
    [Invalid_argument] on out-of-range items or negative weights. *)

val total_weight : instance -> float
(** Sum of item weights. *)

val covered_weight : instance -> int list -> float
(** Weight of the union of the chosen sets. *)

val is_cover : ?target:float -> instance -> int list -> bool
(** Whether the chosen sets cover at least [target] weight (default:
    everything, up to a 1e-9 slack). *)

val greedy : ?target:float -> instance -> int list
(** Greedy partial cover: repeatedly pick the set covering the largest
    uncovered weight, stopping once [target] is reached (default: full
    cover). Returns chosen sets in pick order; ties are broken by the
    smallest set index. Raises
    [Monpos_resilience.Error.Error (Infeasible_model _)] if the target
    is unreachable. *)

val exact : ?target:float -> instance -> int list
(** Minimum-cardinality (partial) cover by branch and bound; see
    {!exact_detailed}. Raises
    [Monpos_resilience.Error.Error (Infeasible_model _)] if the target
    is unreachable. *)

type exact_result = {
  chosen : int list;  (** best cover found *)
  proven_optimal : bool;  (** false when the node budget was exhausted *)
  nodes : int;  (** branch-and-bound nodes explored *)
}

val exact_detailed : ?target:float -> ?node_limit:int -> instance -> exact_result
(** Same solver with an explicit node budget (default 20 million).
    When the budget runs out the incumbent (at least as good as
    greedy) is returned with [proven_optimal = false]. Raises
    [Monpos_resilience.Error.Error (Infeasible_model _)] if no solution
    reaching [target] exists at all.

    The instance alone picks one of two paths.

    - {b Pair systems}: a full cover (the default [target]) in which
      every item lies in one or two sets, such as the §6 beacon ILP.
      This is a minimum vertex cover of the graph whose vertices are
      the sets and whose edges are the two-set items. In time linear
      in the items and sets, the set of each one-set item is taken, a
      set left with no uncovered neighbour is dropped, and the one
      neighbour of a set left with one is taken. Then the LP
      relaxation, solved as a maximum flow on the bipartite double
      cover, fixes the sets at 1 in and those at 0 out (Nemhauser and
      Trotter); the degree rules and this fixing repeat until the LP
      fixes nothing. The branch and bound below runs on the sets at
      1/2 and the edges between them, and its answer is mapped back
      with the fixed sets. [nodes] counts only this kernel search: it
      is 0, and the answer proven, when the reductions fix every set.
      Each solve adds its kernel's set count to the [cover.kernel_sets]
      counter.
    - {b Every other instance}, and every partial cover: dominated
      sets, and for full covers dominated items, are removed, and the
      branch and bound runs on what is left. *)

val greedy_guarantee : instance -> float
(** The classic [H_d] harmonic guarantee for full covers, where [d] is
    the largest set size: greedy uses at most [H_d × OPT] sets. *)

(** Theorem 1 constructions. *)
module Reduction : sig
  type monitoring = {
    graph : Monpos_graph.Graph.t;
    paths : (Monpos_graph.Graph.node list * Monpos_graph.Graph.edge list) array;
        (** one traffic (as node and edge lists) per original item *)
    edge_of_set : Monpos_graph.Graph.edge array;
        (** the graph edge standing for each original set *)
  }

  val to_monitoring : instance -> monitoring
  (** Build the monitoring instance of Theorem 1: one edge per set,
      4-cycles between intersecting sets, and one traffic per item
      routed across the edges of the sets containing it. A minimum
      set of monitored links has the same size as a minimum set
      cover. *)

  val of_monitoring :
    num_edges:int -> weights:float array -> int list array -> instance
  (** The converse direction: given, for each traffic, the list of
      edges its path uses ([paths-as-edge-lists]), build the cover
      instance whose sets are edges and items are traffics.
      [num_edges] bounds the set index space; [weights] are traffic
      volumes. *)
end
