(** Primal network simplex for minimum-cost flow.

    A specialized simplex over the arc-incidence matrix: the basis is
    a spanning tree (rooted at an artificial node) held in
    parent/pred/depth/thread arrays, so each pivot is a cycle update
    plus a tree update instead of a dense basis refactor. The tree
    update reverses the stem from the entering arc's end to the
    leaving arc, relinks the moved subtree's preorder thread by
    splicing O(stem) segments, and sets depths and potentials in one
    pass over the moved subtree.
    This is the kernel behind [Mincost.solve ~algo:Net_simplex]; the
    paper's PPME* re-optimization (§5.4) and the MECF bound (§4.3)
    both route through it on their hot paths.

    Design points (see DESIGN.md §13):
    - strongly feasible basis: the leaving-arc tie-break (strict [<]
      on the cycle's first leg, [<=] on the second) keeps every basis
      strongly feasible, so degenerate pivots cannot cycle in exact
      arithmetic; a Bland-style lowest-index fallback kicks in after a
      long run of degenerate pivots as a float-world backstop;
    - block (candidate-list) pricing: entering arcs are found by
      scanning wrap-around blocks of ~sqrt(m) arcs and taking the most
      negative reduced cost seen in the first block that has one;
    - warm start: [solve ~warm:true] reuses the previous spanning tree
      and arc states, recomputing tree-arc flows bottom-up, then
      re-threading the whole tree and its potentials top-down. A tree
      arc whose flow would leave its bounds is clamped to the nearer
      bound and its node re-hangs under the root by an artificial
      arc, so the old basis is repaired rather than discarded and
      re-solves after cost/capacity/supply perturbations (drift
      ticks) pay only the pivots the change needs;
    - dual certificate: on [Optimal] the node potentials are exposed,
      so callers can check complementary slackness independently. *)

type t
(** Mutable solver instance; holds both the network and the basis so
    consecutive solves can warm start. *)

type status = Optimal | Infeasible

val create : int -> t
(** [create n] is an empty network on nodes [0 .. n-1]. The artificial
    root node is internal and not part of this numbering. *)

val node_count : t -> int

val add_arc :
  ?lower:float -> t -> src:int -> dst:int -> capacity:float -> cost:float -> int
(** Append a directed arc with bounds [\[lower, capacity\]] (default
    [lower = 0.]) and per-unit [cost]; returns its dense id. Requires
    [0. <= lower <= capacity]. [capacity] may be [infinity]. Adding an
    arc invalidates the warm basis (the next solve is cold). *)

val arc_count : t -> int

val set_arc :
  ?lower:float -> ?capacity:float -> ?cost:float -> t -> int -> unit
(** Update bounds and/or cost of an existing arc in place. Keeps the
    network shape, so a following [solve ~warm:true] can reuse the
    basis. Omitted fields are left unchanged. *)

val set_supply : t -> int -> float -> unit
(** [set_supply t v b]: node [v] supplies [b] units ([b > 0.]) or
    demands [-b] ([b < 0.]). Supplies must sum to zero over the nodes;
    an unbalanced instance reports {!Infeasible}. Overwrites any
    previous supply of [v]. *)

val solve : ?warm:bool -> t -> status
(** Optimize. With [warm:true] (the default) every solve after the
    first starts from the previous basis, repaired to the current
    bounds, costs and supplies, unless {!add_arc} has been called
    since; that first solve, a solve after [add_arc] and any solve
    with [warm:false] start cold from the all-artificial star tree.
    Raises [Monpos_resilience.Error.Error (Numerical _)] if the pivot
    limit is exceeded (anti-cycling failure — a bug, not an input
    property). *)

val flow : t -> int -> float
(** Flow on an arc after an [Optimal] solve (includes its lower
    bound). *)

val objective : t -> float
(** Cost of the last computed flow: sum over arcs of flow x cost. *)

val potential : t -> int -> float
(** Node potential (dual value) after an [Optimal] solve. The
    complementary-slackness certificate holds with reduced cost
    [rc a = cost a +. potential (src a) -. potential (dst a)]:
    [rc >= 0] on arcs at their lower bound, [rc <= 0] on saturated
    arcs, [rc = 0] on arcs strictly between their bounds. *)

val pivots : t -> int
(** Pivot count of the last solve. Each solve also adds its work to
    two counters in [Metrics.default]: [flow.priced_arcs] (arcs the
    entering-arc search scanned) and [flow.tree_nodes] (nodes the
    pivots' tree updates visited: the walk to the moved subtree's end
    plus the pass that relabels it). *)

val warm_started : t -> bool
(** Whether the last solve started from the previous basis: true for
    every [warm:true] solve except a handle's first and the first
    after {!add_arc}. *)

val check_tree : t -> (unit, string) result
(** Test hook: check the basis invariants that pivots and warm starts
    keep. [thread] is one cycle through all nodes and the root, and
    [rev_thread] is its inverse; the thread is a preorder of the tree
    (each node follows its parent, and its parent is the last node
    met one level up); [depth] is the parent's plus one; each
    potential equals its parent's minus (arc pointing to the parent)
    or plus (arc from the parent) its tree arc's cost, bit for bit;
    tree arcs are oriented as recorded; every flow lies in
    [\[0, capacity - lower\]] up to rounding. [Ok ()] before the first
    solve. *)
