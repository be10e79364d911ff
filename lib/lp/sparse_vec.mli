(** Indexed sparse scratch vectors for the simplex linear-algebra
    kernel.

    A vector couples a dense value array with an explicit nonzero
    pattern (index list plus membership flags), so the hot solver
    loops can iterate, clear and rebuild work vectors in time
    proportional to the number of nonzeros instead of the basis
    dimension [m]. Values are readable positionally through {!raw}
    (random access is frequent in pricing and ratio tests); all
    {e writes} must go through {!set}/{!add} so the pattern stays a
    superset of the nonzero support.

    Explicit zeros may linger in the pattern (a cancellation does not
    remove its index); consumers must treat a listed value of [0.] as
    absent. *)

type t

val create : int -> t
(** Zero vector of the given dimension. *)

val dim : t -> int

val clear : t -> unit
(** Zero every listed position and empty the pattern. O(nnz). *)

val set : t -> int -> float -> unit
(** Overwrite a component, adding it to the pattern if absent. *)

val add : t -> int -> float -> unit
(** Accumulate into a component, adding it to the pattern if absent. *)

val get : t -> int -> float

val raw : t -> float array
(** The backing dense value array, for reads only. *)

val nnz : t -> int
(** Number of listed positions (explicit zeros included). *)

val iter : t -> (int -> float -> unit) -> unit
(** Iterate the listed positions, skipping explicit zeros. The
    callback must not modify the pattern of this vector. *)
