(** POP topology generation.

    §2 of the paper models a Point of Presence as a two-level
    hierarchy: backbone routers (interconnected, carrying inter-POP and
    peering links) and access routers (each connected to one or more
    backbone routers), with customer networks attached to access
    routers. §4.4 evaluates on POPs of 10 and 15 routers (27 and 71
    links, 132 and 1980 traffics) and §6.2 on 15-, 29- and 80-router
    POPs; the paper's topologies come from Rocketfuel, which we
    substitute with this generator (see DESIGN.md §3).

    Traffic endpoints are *virtual nodes* (customers and peers), one
    access link each, exactly as the paper counts them: "the generated
    network includes some virtual nodes that represent sources and
    targets of the traffic and that are not considered as routers". *)

type role =
  | Backbone  (** core router *)
  | Access  (** access router *)
  | Customer  (** virtual customer endpoint (attached to an access router) *)
  | Peer  (** virtual peering endpoint (attached to a backbone router) *)

type t = {
  graph : Monpos_graph.Graph.t;
  roles : role array;  (** role per node id *)
  name : string;  (** e.g. "pop10" *)
}

type params = {
  backbone : int;  (** number of backbone routers (>= 1) *)
  access : int;  (** number of access routers *)
  router_links : int;
      (** total router-to-router links; must be at least
          [backbone ring + one uplink per access router] *)
  endpoints : int;  (** number of virtual traffic endpoints *)
  peers : int;  (** how many endpoints peer at backbone routers *)
}

val generate : ?name:string -> params -> seed:int -> t
(** Build a random POP: a backbone ring, at least one uplink per
    access router, random extra chords/dual-homings up to
    [router_links], then endpoint access links. The result is always
    connected. Raises [Invalid_argument] on unsatisfiable parameter
    combinations. *)

val preset : [ `Pop10 | `Pop15 | `Pop29 | `Pop80 ] -> params
(** Parameter sets matching the paper's instances:
    - [`Pop10]: 10 routers, 27 links, 12 endpoints (132 traffics);
    - [`Pop15]: 15 routers, 71 links, 45 endpoints (1980 traffics);
    - [`Pop29]: 29 routers (active-monitoring experiment of Fig. 10);
    - [`Pop80]: 80 routers (Fig. 11). *)

val preset_name : [ `Pop10 | `Pop15 | `Pop29 | `Pop80 ] -> string
(** "pop10", "pop15", ... *)

val make_preset : [ `Pop10 | `Pop15 | `Pop29 | `Pop80 ] -> seed:int -> t
(** [generate (preset p) ~seed] with the preset's name. *)

val routers : t -> Monpos_graph.Graph.node list
(** Backbone and access routers, in id order. *)

val endpoints : t -> Monpos_graph.Graph.node list
(** Customer and peer endpoints, in id order. *)

val num_routers : t -> int
(** Router count (the paper's "POP with n routers"). *)

val router_link_count : t -> int
(** Number of router-to-router links. *)
