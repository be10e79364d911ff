(** Deterministic pseudo-random number generator.

    All randomized components of the library (topology generation,
    traffic matrices, solver tie-breaking) draw from this generator so
    that every experiment is reproducible from a single integer seed.
    The core is SplitMix64 (one 64-bit state advanced by a fixed odd
    increment), which has good statistical quality at the cost of one
    addition and one mix per draw. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed.
    Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. Requires [x > 0.]. *)

val bool : t -> bool
(** Fair coin flip. *)

val range : t -> int -> int -> int
(** [range g lo hi] is uniform in [\[lo, hi\]] inclusive.
    Requires [lo <= hi]. *)

val pareto : t -> alpha:float -> xmin:float -> float
(** [pareto g ~alpha ~xmin] samples a Pareto(alpha, xmin) variate,
    used for heavy-tailed traffic volumes. Requires [alpha > 0.] and
    [xmin > 0.]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement g m n] draws [m] distinct integers from
    [\[0, n)], in increasing order. Requires [0 <= m <= n]. *)
