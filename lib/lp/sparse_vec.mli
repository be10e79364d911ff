(** Indexed sparse scratch vectors for the simplex linear-algebra
    kernel.

    A vector couples a dense value array with an explicit nonzero
    pattern (index list plus membership flags), so the hot solver
    loops can iterate, clear and rebuild work vectors in time
    proportional to the number of nonzeros instead of the basis
    dimension [m]. Values are read and written positionally through
    {!raw}; a position must be listed ({!touch} or {!set}) before a
    nonzero is written there, so the pattern stays a superset of the
    nonzero support.

    The hot loops write through {!raw} after an int-only {!touch}
    rather than calling {!set}: no float crosses a module boundary, so
    nothing is boxed even when cross-module inlining is off. They walk
    the pattern with index loops over {!pattern}. A position holding a
    nonzero is always listed, so an accumulating loop need only touch
    a position whose value still reads [0.].

    Explicit zeros may linger in the pattern (a cancellation does not
    remove its index); consumers must treat a listed value of [0.] as
    absent. *)

type t

val create : int -> t
(** Zero vector of the given dimension. *)

val clear : t -> unit
(** Zero every listed position and empty the pattern. O(nnz). *)

val touch : t -> int -> unit
(** List a position (a no-op when it is listed already), so that its
    value may then be written through {!raw}. *)

val set : t -> int -> float -> unit
(** Overwrite a component, listing it if absent. *)

val get : t -> int -> float

val raw : t -> float array
(** The backing dense value array. Write only at listed positions. *)

val pattern : t -> int array
(** The listed positions are entries [0 .. nnz - 1], in the order they
    were first listed. Read only. *)

val nnz : t -> int
(** Number of listed positions (explicit zeros included). *)
