(** Sparse LU factorization of a simplex basis, with product-form
    eta updates.

    The factorization runs Gaussian elimination with Markowitz
    pivoting (minimize [(row_count - 1) * (col_count - 1)] over a few
    shortest active columns) under threshold partial pivoting (a
    pivot must be at least [tau] times the largest entry of its
    column), the standard compromise between fill-in and numerical
    stability for the very sparse, network-structured bases produced
    by the paper's PPM/PPME/MECF programs.

    Cost: a factorization runs in O(nnz(B) + fill) plus a small bitset
    term. The shortest active columns come from per-count bitset
    buckets; all elimination scratch lives in one workspace per domain
    that grows with [m] and is reused by every call, so a
    factorization allocates only its output arrays (L and U stored
    flat). The pivot sequence depends only on the basis, never on what
    the workspace factored before.

    Index spaces: the basis [B] is [m x m]; its {e rows} are the LP's
    constraint rows and its {e columns} are basis positions (position
    [r] holds the column of the [r]-th basic variable). {!ftran} maps
    a row-indexed right-hand side to a position-indexed solution of
    [B x = b]; {!btran} maps a position-indexed right-hand side to a
    row-indexed solution of [B^T y = c]. Extracting row [r] of
    [B^-1] (the dual simplex's pricing row) is [btran] of the [r]-th
    unit vector.

    After each simplex pivot the caller appends a product-form eta
    built from the ftran'd entering column ({!append_eta}); solves
    then run through the factorization plus the eta file. The eta
    file grows with every pivot, so {!should_refactor} signals when
    rebuilding the factorization is cheaper than dragging the file
    along — driven by eta count {e and} accumulated eta fill, not a
    fixed iteration modulo. *)

exception Singular
(** The basis columns are (numerically) linearly dependent. *)

type t
(** A factorization plus its eta file. Mutable: {!append_eta} extends
    it in place. *)

val factor : m:int -> col:(int -> (int -> float -> unit) -> unit) -> t
(** [factor ~m ~col] factorizes the [m x m] basis whose position-[r]
    column's nonzeros are enumerated by [col r f] (calling [f row
    value]; entries with [value = 0.] are ignored). Raises
    {!Singular} when no acceptable pivot remains. [col] must not call
    [factor] itself: the domain's workspace is in use while it runs. *)

val ftran : t -> rhs:Sparse_vec.t -> into:Sparse_vec.t -> unit
(** Solve [B x = rhs] with [rhs] indexed by constraint rows, leaving
    [x] in [into] indexed by basis positions. [rhs] is consumed (its
    contents are destroyed); [into] is cleared first. The two vectors
    must be distinct and of dimension [>= m]. *)

val btran : t -> rhs:Sparse_vec.t -> into:Sparse_vec.t -> unit
(** Solve [B^T y = rhs] with [rhs] indexed by basis positions,
    leaving [y] in [into] indexed by constraint rows. Same vector
    contract as {!ftran}. *)

val append_eta : t -> r:int -> alpha:Sparse_vec.t -> unit
(** Record the basis change "column at position [r] replaced by the
    column whose ftran'd representation is [alpha]" as a product-form
    eta. [alpha.(r)] is the pivot element and must be bounded away
    from zero (the simplex ratio test guarantees it). [alpha] is
    copied, not retained. *)

val eta_count : t -> int
(** Etas appended since the factorization was built. *)

val should_refactor : ?eta_limit:int -> t -> bool
(** Whether the eta file has grown past the point where refactorizing
    pays: the eta count reached [eta_limit] (default: derived from
    [m]), or the accumulated eta nonzeros exceed a multiple of the
    factorization's own size. *)

type stats = {
  basis_nnz : int;  (** nonzeros of the factorized basis *)
  factor_nnz : int;  (** nonzeros of L + U, pivots included *)
  eta_count : int;
  eta_nnz : int;
}

val stats : t -> stats
(** Fill-in and eta-file accounting, for the observability layer and
    the kernel-comparison bench. *)
