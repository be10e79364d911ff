(** Minimum-cost flow with per-arc lower bounds.

    This is the polynomial engine behind two pieces of the paper:
    the MECF view of PPM(k) in its linearly-relaxed form (the greedy
    heuristics "are" a min-cost flow with costs 1/load, §4.3), and the
    PPME*(x,h,k) re-optimization of sampling rates when device
    positions are fixed (§5.4), which the paper notes "can be expressed
    as a minimum cost flow problem".

    One store holds the network: the {!Netsimplex.t} that {!create}
    makes. {!add_arc}, {!update_arc} and {!set_supply} write straight
    into it, and two kernels sit behind {!solve}:

    - {!Net_simplex}: the spanning-tree primal network simplex in
      {!Netsimplex}, solving the store in place. Its basis lives as
      long as [t], so a re-solve after {!update_arc}/{!set_supply}
      perturbations (the §5.4 drift ticks) warm starts from the
      previous one. On [Optimal] it also exposes node {!potentials}
      as a dual certificate.
    - {!Ssp}: successive shortest augmenting paths on a residual graph
      it reads from the store on each solve (SPFA path search, so
      negative arc costs are fine as long as they close no negative
      cycle); lower bounds are removed by the standard supply
      transformation onto a super-source/super-sink pair. It is the
      reference kernel: perfbench's [ppme-drift] checker and the
      differential tests name it as the oracle for the warm network
      simplex.

    Both kernels agree on status and objective, which the randomized
    differential harness in [test_flow_prop.ml] enforces against the
    LP formulation. A network whose supplies do not sum to zero is
    {!Infeasible} for both: {!solve} checks the balance before either
    kernel runs. *)

type t
(** Mutable network. *)

type arc
(** Handle on a directed arc. *)

type status =
  | Optimal  (** all supplies routed at minimum cost *)
  | Infeasible  (** supplies/lower bounds cannot be routed *)

type algo =
  | Ssp  (** successive shortest paths (the historical default) *)
  | Net_simplex  (** warm-startable spanning-tree simplex kernel *)

val create : int -> t
(** [create n] is an empty network on nodes [0 .. n-1]. *)

val add_arc :
  ?lower:float -> t -> src:int -> dst:int -> capacity:float -> cost:float -> arc
(** Append a directed arc with flow bounds [\[lower, capacity\]]
    (default [lower = 0.]) and per-unit [cost]. Raises
    [Invalid_argument] unless both ends are nodes and
    [0. <= lower <= capacity]. *)

val update_arc : ?lower:float -> ?capacity:float -> ?cost:float -> t -> arc -> unit
(** Update bounds and/or cost of an existing arc in place; omitted
    fields keep their values. Raises [Invalid_argument] unless
    [0. <= lower <= capacity] after the update. The network shape is
    preserved, so a following [solve ~algo:Net_simplex] can warm start
    from the previous basis. *)

val set_supply : t -> int -> float -> unit
(** [set_supply t v b] makes node [v] a source of [b] units ([b > 0.])
    or a sink of [-b] units ([b < 0.]). Supplies must globally sum to
    zero for the instance to be feasible. Overwrites any previous
    supply of [v]. *)

val solve : ?algo:algo -> t -> status
(** Route all supplies at minimum cost (default kernel {!Ssp}). May be
    called repeatedly after modifying supplies or arcs; with
    {!Net_simplex} repeated solves reuse the previous spanning-tree
    basis unless {!add_arc} was called since. {!Ssp} does not cancel
    cycles: when its path search meets a negative-cost cycle it raises
    [Monpos_resilience.Error.Error (Numerical _)] with stage
    ["Mincost.solve_ssp"]. *)

val flow : t -> arc -> float
(** Flow on the arc after the last {!solve} (includes its lower
    bound). [flow], {!total_cost} and {!potentials} read the answer of
    the kernel that solved last, so read them before the network is
    next modified. Raises [Invalid_argument] unless the last solve
    was [Optimal]. *)

val total_cost : t -> float
(** Cost of the last computed flow (sum over arcs of flow × cost);
    [0.] unless the last solve was [Optimal]. *)

val potentials : t -> float array option
(** Node potentials (dual values) from the last solve: [Some pi] after
    an [Optimal] {!Net_simplex} solve, [None] otherwise. With reduced
    cost [rc = cost +. pi.(src) -. pi.(dst)], complementary slackness
    holds: [rc >= 0] on arcs at their lower bound, [rc <= 0] on
    saturated arcs, [rc = 0] strictly in between. *)

val check_tree : t -> (unit, string) result
(** Test hook: {!Netsimplex.check_tree} on the network-simplex basis
    this network keeps, [Ok ()] if no {!Net_simplex} solve built
    one. *)
