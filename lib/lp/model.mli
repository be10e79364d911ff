(** Mixed-integer linear program builder.

    A model is a mutable container of variables (with bounds, objective
    coefficients and an integrality kind) and of linear constraints.
    The paper's formulations — Linear programs 1, 2 and 3 and the
    beacon-placement ILP — are all instantiated through this interface
    and handed to {!Simplex} (LP relaxations) or {!Mip} (integer
    solves). *)

type var
(** Handle on a model variable. Only valid for the model that created
    it. *)

type var_kind =
  | Continuous  (** real-valued within its bounds *)
  | Integer  (** integer-valued within its bounds *)
  | Binary  (** integer with implied bounds [\[0, 1\]] *)

type sense = Le | Ge | Eq
(** Constraint comparison direction: [row <= rhs], [>=] or [=]. *)

type objective = Minimize | Maximize

type t
(** Mutable model. *)

val create : ?name:string -> objective -> t
(** Fresh model with no variables or constraints. *)

val name : t -> string
(** Model name (defaults to ["lp"]). *)

val direction : t -> objective
(** Optimization direction given at creation. *)

val add_var :
  t -> ?name:string -> ?lb:float -> ?ub:float -> ?obj:float -> var_kind -> var
(** [add_var m kind] registers a variable. Default bounds are
    [\[0, +inf)] for [Continuous]/[Integer] and [\[0, 1\]] for
    [Binary]; default objective coefficient is [0.]. For [Binary],
    supplied bounds are intersected with [\[0, 1\]]. *)

val add_constr : t -> ?name:string -> (float * var) list -> sense -> float -> unit
(** [add_constr m terms sense rhs] adds the constraint
    [sum terms sense rhs]. Duplicate variables in [terms] are summed.
    Zero coefficients are dropped. *)

val fix : t -> var -> float -> unit
(** [fix m v x] pins [v] to the single value [x]. *)

val var_index : var -> int
(** Dense 0-based index of the variable (creation order). *)

val var_of_index : t -> int -> var
(** Inverse of {!var_index}. Requires a valid index. *)

val num_vars : t -> int
(** Number of registered variables. *)

val num_constrs : t -> int
(** Number of registered constraints. *)

val var_name : t -> var -> string
(** Display name ("x{i}" when not provided). *)

val var_lb : t -> var -> float
(** Current lower bound. *)

val var_ub : t -> var -> float
(** Current upper bound. *)

val var_obj : t -> var -> float
(** Current objective coefficient. *)

val var_kind : t -> var -> var_kind
(** Integrality kind. *)

val constr_terms : t -> int -> (float * int) list
(** Terms of constraint [i] as (coefficient, variable index) pairs,
    deduplicated, in increasing variable order. *)

val constr_name : t -> int -> string
(** Display name of constraint [i]. *)

val iter_constrs : t -> (int -> (float * int) list -> sense -> float -> unit) -> unit
(** Iterate over constraints in insertion order. *)

val columns : t -> (int array * float array) array
(** Column-wise (CSC) export of the constraint matrix: entry [v] is
    [(rows, coefs)] with the constraint indices and coefficients of
    variable [v]'s column, in increasing row order. A fresh snapshot —
    later [add_constr] calls are not reflected. This is what
    {!Simplex.of_model} consumes. *)

val value_feasible : ?tol:float -> t -> float array -> bool
(** [value_feasible m x] checks that the assignment [x] (indexed by
    {!var_index}) satisfies every bound, every constraint and every
    integrality requirement, within tolerance [tol] (default 1e-6).
    Used by tests and by the MIP rounding heuristic. *)

val objective_value : t -> float array -> float
(** Objective of an assignment (independent of direction: the raw
    [c.x]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering of the whole model (LP-file flavored). *)
