(** Classical predicates over tracepoint states (Definition 1 in the paper).

    Every predicate compiles to an objective function over an environment
    mapping tracepoint ids to density matrices; the predicate holds if and
    only if the objective is [<= 0]. Tracepoint id 0 denotes the program
    input. *)

type env = int -> Linalg.Cmat.t

type t =
  | Is_pure of int  (** [|| rho rho^dag - rho || <= 0] *)
  | Purity_ge of int * float  (** [tr(rho^2) >= bound] *)
  | Equals of int * int  (** [|| rho_a - rho_b || <= 0] *)
  | Equals_const of int * Linalg.Cmat.t
  | Not_equals_const of int * Linalg.Cmat.t * float
      (** [|| rho - c || >= margin]: true when the state is at least
          [margin] away from the constant *)
  | Distance_le of int * int * float  (** [|| rho_a - rho_b || <= bound] *)
  | Expect_ge of int * Qstate.Pauli.t * float  (** [tr(P rho) >= bound] *)
  | Expect_le of int * Qstate.Pauli.t * float
  | Diag_in_range of int * int * float * float
      (** [lo <= rho[k][k] <= hi] — e.g. an encoded attribute range *)
  | Phase_diff of int * int * float
      (** off-diagonal phase difference between two single-qubit states
          equals the given angle *)
  | Custom of string * (env -> float)

(** [eval p env] is the objective value; [<= 0] iff the predicate holds. *)
val eval : t -> env -> float

(** [vjp p] is the reverse-mode derivative of {!eval}: given an
    environment it returns one cotangent per mentioned tracepoint, as
    [(tp, gbar)] pairs with [d (eval p env) = sum Re (hs_inner gbar d (env tp))].
    Norms take the zero subgradient at zero distance, and
    [Diag_in_range] takes the active side of its [max]. [None] for
    [Phase_diff] and [Custom], which have no adjoint. *)
val vjp : t -> (env -> (int * Linalg.Cmat.t) list) option

(** [holds ?tol p env] tests the predicate with tolerance [tol]
    (default 1e-6). *)
val holds : ?tol:float -> t -> env -> bool

(** [tracepoints p] lists the tracepoint ids the predicate mentions. *)
val tracepoints : t -> int list

val describe : t -> string
