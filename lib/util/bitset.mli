(** Fixed-capacity bitsets over [0 .. capacity-1].

    The exact set-cover solver of {!module:Monpos_cover} enumerates
    subsets of traffics; bitsets make membership, union and popcount
    O(capacity/64). *)

type t
(** Mutable bitset with a fixed capacity chosen at creation. *)

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val capacity : t -> int
(** Universe size given at creation. *)

val copy : t -> t
(** Independent copy. *)

val add : t -> int -> unit
(** [add s i] inserts [i]. Requires [0 <= i < capacity s]. *)

val remove : t -> int -> unit
(** [remove s i] deletes [i] if present. *)

val mem : t -> int -> bool
(** Membership test. *)

val cardinal : t -> int
(** Number of elements (popcount). *)

val is_empty : t -> bool
(** True iff no element is set. *)

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. Capacities must be
    equal. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] sets [dst := dst \ src]. Capacities must be
    equal. *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] is [|a ∩ b|] without allocating. *)

val diff_cardinal : t -> t -> int
(** [diff_cardinal a b] is [|a \ b|] without allocating. *)

val diff_meets : t -> t -> t -> bool
(** [diff_meets a b c] is true iff [(a \ b) ∩ c] is non-empty, without
    allocating. *)

val union_diff_into : t -> t -> t -> unit
(** [union_diff_into dst a b] sets [dst := dst ∪ (a \ b)]. Capacities
    must be equal. *)

val subset : t -> t -> bool
(** [subset a b] is true iff [a ⊆ b]. *)

val equal : t -> t -> bool
(** Extensional equality. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val elements : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] is the set of [xs] over universe [\[0, n)]. *)

val fill : t -> unit
(** Sets every element of the universe. *)

val clear : t -> unit
(** Removes every element. *)
