(** Dense real matrices and linear solvers (LU with partial pivoting,
    Cholesky, ridge-regularized least squares). *)

type t = private { rows : int; cols : int; a : float array }

val create : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_lists : float list list -> t
val dims : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val transpose : t -> t

(** [apply a x] is the matrix-vector product. *)
val apply : t -> float array -> float array

(** [solve a b] solves the square system [a x = b] by LU decomposition with
    partial pivoting. Raises [Failure] when [a] is singular. *)
val solve : t -> float array -> float array

(** [cholesky a] returns the lower-triangular factor [l] with [a = l * l^T] of
    a symmetric positive-definite matrix. Raises [Failure] when [a] is not
    positive definite. *)
val cholesky : t -> t

(** [solve_spd a b] solves a symmetric positive-definite system via Cholesky. *)
val solve_spd : t -> float array -> float array

(** [lstsq ?ridge a b] returns the minimizer of [||a x - b||^2 + ridge ||x||^2]
    via the (regularized) normal equations. [ridge] defaults to [1e-10], which
    keeps the normal equations well-posed for rank-deficient sampling sets. *)
val lstsq : ?ridge:float -> t -> float array -> float array

(** A factorized least-squares map [b -> x] and its adjoint. *)
type lstsq = {
  solve : float array -> float array;
      (** [b -> x], the minimizer of [||a x - b||^2 + ridge ||x||^2] *)
  adjoint : float array -> float array;
      (** the transpose of the (linear) [solve] map: [xbar -> bbar] with
          [dot xbar (solve b) = dot (adjoint xbar) b] *)
}

(** [lstsq_factor ?ridge a] factorizes the normal equations once
    (Cholesky, with a pivoted-elimination fallback) and returns the solver
    for repeated right-hand sides together with its adjoint, which reuses
    the same factor (the hot path of the isomorphism-based approximation
    and of its gradient). *)
val lstsq_factor : ?ridge:float -> t -> lstsq

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
