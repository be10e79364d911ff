(** Binary min-heap keyed by floats.

    Used as the branch-and-bound frontier of [Monpos_lp.Mip] (and
    saved verbatim in its checkpoints). Elements are plain payloads; the heap does not support decrease-key, callers insert
    duplicates and skip stale pops (the standard lazy-deletion idiom,
    which is faster in practice for sparse graphs). *)

type 'a t
(** Mutable heap of ['a] payloads with float keys. *)

val create : unit -> 'a t
(** Fresh empty heap. *)

val is_empty : 'a t -> bool
(** [is_empty h] is true iff [h] has no element. *)

val size : 'a t -> int
(** Number of stored elements (including stale duplicates). *)

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val min : 'a t -> (float * 'a) option
(** [min h] is the element with the smallest key without removing it,
    or [None] if the heap is empty. The element returned is exactly the
    one the next [pop_min] would remove. *)

val pop_min : 'a t -> (float * 'a) option
(** Removes and returns the element with the smallest key, or [None]
    if the heap is empty. Ties are broken arbitrarily. *)

val clear : 'a t -> unit
(** Removes every element. *)

val snapshot : 'a t -> float array * 'a array
(** [snapshot h] is a copy of the heap's internal [(keys, payloads)]
    arrays, trimmed to the live length. The arrays are in internal
    (heap-shape) order, {e not} sorted: restoring them verbatim with
    {!restore} reproduces the exact pop order of [h], including the
    order among equal keys — which a rebuild by repeated {!push} would
    not. This is the contract checkpoint/resume relies on. *)

val restore : 'a t -> float array -> 'a array -> unit
(** [restore h keys data] replaces [h]'s contents with the given
    internal-order arrays (as produced by {!snapshot}). The arrays must
    satisfy the binary-heap ordering; this is not re-validated. Raises
    [Invalid_argument] when the array lengths differ. *)
