(** CPLEX LP-format export.

    The paper solved its programs with CPLEX; this module writes any
    {!Model.t} in the standard LP file format so a model built here can
    be loaded into CPLEX/Gurobi/HiGHS/glpsol and cross-checked against
    our own solver — the same interoperability the original authors
    relied on. *)

val to_string : Model.t -> string
(** Render the model in LP format: objective, [Subject To],
    [Bounds], [Binaries]/[Generals] sections, [End]. Variable names
    are sanitized (LP format forbids several characters); the mapping
    is by position, so row/column order is preserved. *)
