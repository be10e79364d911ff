(** Rendering helpers for passive placements.

    Text and Graphviz views of a passive placement, consumed by
    [monitorctl passive]: a POP drawing where monitored links are
    highlighted, plus an aligned text summary. *)

val passive_dot : Instance.t -> Passive.solution -> string
(** Figure-6 style rendering with the monitored links drawn thick and
    colored; edge labels carry the load share. *)

val passive_table : Instance.t -> Passive.solution -> string
(** Aligned table of the monitored links with their loads and the
    share of the total volume each carries. *)
