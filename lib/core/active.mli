(** Active monitoring beacon placement — §6.

    An active probing system sends probes (IP messages along routed
    paths) from beacon nodes; a probe between extremities [φu] and
    [φv] can be emitted by either end ("the probe from φu to φv is
    equal to the probe from φv to φu"). Following Nguyen & Thiran
    [15], the pipeline is two-phased: first compute an optimal set of
    probes [Φ] covering every coverable link from the candidate beacon
    set [V_B], then choose the fewest beacons so that every probe has
    a beacon at one of its extremities.

    The placement phase is the paper's contribution: a 0–1 ILP
    (vertex-cover style) and a max-coverage greedy, both compared
    against the original algorithm of [15] (beacons picked in
    arbitrary order). The greedy and the ILP run on one set system
    (a candidate covers the probes it can send), through the greedy
    and the exact branch and bound of {!Monpos_cover.Cover} that also
    solve §4.2's PPM(k). *)

type probe = {
  endpoint_a : Monpos_graph.Graph.node;
      (** always a member of the candidate set [V_B] *)
  endpoint_b : Monpos_graph.Graph.node;  (** any network node *)
  path : Monpos_graph.Paths.path;  (** the route the probe follows *)
}

val coverable_links :
  ?targets:Monpos_graph.Graph.node list ->
  Monpos_graph.Graph.t ->
  candidates:Monpos_graph.Graph.node list ->
  Monpos_graph.Graph.edge list
(** Links crossed by at least one candidate-to-target shortest-path
    probe — the set the probe computation must cover. [targets]
    defaults to every node; the §6 experiments pass the POP's routers
    so that probes exercise the router fabric (beacons diagnose
    infrastructure links, not customer tails). *)

val compute_probes :
  ?targets:Monpos_graph.Graph.node list ->
  ?redundancy:int ->
  Monpos_graph.Graph.t ->
  candidates:Monpos_graph.Graph.node list ->
  probe list
(** The [15]-style probe computation (polynomial): every coverable
    link gets up to [redundancy] designated probes crossing it
    (default 3 — multiple-failure diagnosis needs a link observed by
    several probes to disambiguate), chosen by a deterministic hash so
    the designation is reproducible but unbiased, then deduplicated as
    unordered pairs. A link failure is located through its designated
    probes; see DESIGN.md §3 for the substitution note. *)

type placement = {
  beacons : Monpos_graph.Graph.node list;  (** chosen beacons, ascending *)
  optimal : bool;  (** true when proved minimum *)
  method_name : string;  (** "thiran", "greedy" or "ilp" *)
}

val place_thiran : probe list -> candidates:Monpos_graph.Graph.node list -> placement
(** The baseline of [15]: walk the probe set in order; each probe that
    no chosen beacon can send yet promotes its own source to beacon
    (no look-ahead over the candidate list). *)

val place_greedy : probe list -> candidates:Monpos_graph.Graph.node list -> placement
(** The paper's greedy: always pick the candidate able to send the
    most not-yet-covered probes, the lowest candidate id on ties. Runs
    {!Monpos_cover.Cover.greedy} on the set system {!place_ilp} solves,
    so each pick counts in [greedy.picks] and emits a [greedy_pick]
    trace event. Raises
    [Monpos_resilience.Error.Error (Infeasible_model _)] if some probe
    has no candidate extremity. *)

val place_ilp :
  ?options:Monpos_lp.Mip.options ->
  probe list ->
  candidates:Monpos_graph.Graph.node list ->
  placement
(** The paper's 0–1 ILP: minimize [Σ y_i] subject to
    [y_{φu} + y_{φv} >= 1] per probe and [y_i = 0] outside [V_B].
    Solved as a set cover (a candidate covers the probes it can send)
    by {!Monpos_cover.Cover.exact_detailed}. Only [options.max_nodes]
    is read, as the node budget (default
    [Mip.default_options.max_nodes]); [optimal = false] when it runs
    out. Raises [Monpos_resilience.Error.Error (Infeasible_model _)]
    if some probe has no candidate extremity. *)

val validate :
  probe list ->
  beacons:Monpos_graph.Graph.node list ->
  candidates:Monpos_graph.Graph.node list ->
  bool
(** Every probe has a beacon extremity, and beacons ⊆ candidates. *)

type traffic_overhead = {
  messages : int;  (** probes emitted per measurement round *)
  hops : int;  (** total link traversals per round *)
  per_beacon : (Monpos_graph.Graph.node * int) list;
      (** how many probes each beacon sends, descending *)
}

val overhead :
  probe list -> beacons:Monpos_graph.Graph.node list -> traffic_overhead
(** The "volume of additional traffic" cost of a placement (§1/§3's
    other objective for active monitoring): each probe is emitted by
    one of its beacon extremities (the one with fewer assignments so
    load spreads), costing its path length in link traversals. *)
