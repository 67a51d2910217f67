(** Isomorphism-based approximation (Section 5.2, Theorem 1).

    From sampled pairs (input, tracepoint state) the approximation expresses
    any input as a real linear combination of the sampled inputs and carries
    the coefficients through the (linear, structure-preserving) program
    evolution:

    [rho_in ~ sum_i alpha_i sigma_in_i  ==>  rho_T ~ sum_i alpha_i sigma_T_i]

    Coefficient recovery supports two modes:
    - [`Least_squares] (default): minimize [|| rho - sum alpha_i sigma_i ||_F]
      over real alpha — exact whenever the input lies in the sampled span;
    - [`Expectation]: the paper's closed form [alpha_i = tr(sigma_i rho)],
      exact only for an orthonormal operator frame. *)

type recovery = [ `Least_squares | `Expectation ]

type t = private {
  n_in : int;  (** input qubits *)
  inputs : Linalg.Cmat.t array;  (** sampled input density matrices *)
  outputs : (int * Linalg.Cmat.t array) list;  (** per-tracepoint states *)
  basis : Linalg.Rmat.t Lazy.t;  (** HS-vectorized inputs for least squares *)
  solver : Linalg.Rmat.lstsq Lazy.t;
      (** cached normal-equation factorization and its adjoint *)
}

(** [make ~n_in ~inputs ~outputs] assembles an approximation directly from
    sampled pairs (used by experiments that characterize circuit segments). *)
val make :
  n_in:int ->
  inputs:Linalg.Cmat.t array ->
  outputs:(int * Linalg.Cmat.t array) list ->
  t

(** [of_characterization c] builds the approximation functions for every
    tracepoint recorded in the characterization. *)
val of_characterization : Characterize.t -> t

(** [n_sample t] is the number of sampled inputs. *)
val n_sample : t -> int

(** [tracepoint_ids t] lists the approximable tracepoints (including the
    reserved input id 0). *)
val tracepoint_ids : t -> int list

(** [decompose ?mode t rho] recovers the coefficient vector for an input
    density matrix. *)
val decompose : ?mode:recovery -> t -> Linalg.Cmat.t -> float array

(** [input_of_alpha t alpha] is [sum_i alpha_i sigma_in_i]. *)
val input_of_alpha : t -> float array -> Linalg.Cmat.t

(** [tracepoint_of_alpha t ~tracepoint alpha] is [sum_i alpha_i sigma_T_i].
    Raises [Not_found] for an unknown tracepoint. *)
val tracepoint_of_alpha : t -> tracepoint:int -> float array -> Linalg.Cmat.t

(** [state_at ?mode ?physical t ~tracepoint rho_in] approximates the
    tracepoint state under input [rho_in]. When [physical] is true (default)
    the result is projected back to a valid density matrix. *)
val state_at :
  ?mode:recovery -> ?physical:bool -> t -> tracepoint:int -> Linalg.Cmat.t -> Linalg.Cmat.t

(** {2 The validation objective's forward and reverse pass}

    Validation searches over coefficients [alpha]. A {!point} is one
    evaluation of the map from [alpha] to the tracepoint states the
    predicates read, kept together with what its reverse pass needs.

    The candidate input [sum_i alpha_i sigma_in_i] is made physical per
    [projection]:
    - [`Trace]: the coefficients are divided by the input's trace (left
      alone when it is within 1e-9 of zero);
    - [`Psd]: the input is projected onto the density matrices
      ({!Linalg.Eig.project_psd}) and decomposed again by least squares.

    Every tracepoint, the input included, is then recombined from the
    same physical coefficients. *)

type projection = [ `Trace | `Psd ]

type point

(** [point ~projection t alpha] runs the forward pass at [alpha] (copied).
    Tracepoint states are recombined on first use. *)
val point : projection:projection -> t -> float array -> point

(** [point_state p tp] is the state at tracepoint [tp] (0 = input);
    [Not_found] for an unknown tracepoint. *)
val point_state : point -> int -> Linalg.Cmat.t

(** [point_vjp p cotangents] is the gradient with respect to [alpha] of a
    function of the tracepoint states whose cotangents are [cotangents]:
    [(tp, gbar)] pairs with [d value = sum Re (hs_inner gbar d state_tp)]
    (repeated tracepoints add up). It chains back through the
    recombination, the least-squares decomposition (on the cached
    factor), the trace normalization, the PSD clip and the Hermitian
    symmetrization. *)
val point_vjp : point -> (int * Linalg.Cmat.t) list -> float array

(** [evaluator ~projection t] is [point ~projection t], memoized on the
    bits of the last [alpha]: the objective, every constraint and their
    gradients at one point share one forward pass. Not safe to share
    across domains. *)
val evaluator : projection:projection -> t -> float array -> point

(** [accuracy approx_state truth] is the paper's approximation-accuracy
    metric: the Uhlmann fidelity between the (physically projected)
    approximate state and the ground truth. *)
val accuracy : Linalg.Cmat.t -> Linalg.Cmat.t -> float

(** [theoretical_accuracy ~n_in ~n_sample] is Theorem 2's case-2 value
    [min 1 (n_sample / 2^(n_in + 1))]. *)
val theoretical_accuracy : n_in:int -> n_sample:int -> float

(** [samples_for_full_accuracy ~n_in] is [2^(n_in + 1)]. *)
val samples_for_full_accuracy : n_in:int -> int

(** [chain fs rho] composes per-segment approximations (Figure 14's
    intermediate-tracepoint optimization): each function maps a segment
    input to the segment output, applied left to right. *)
val chain : (Linalg.Cmat.t -> Linalg.Cmat.t) list -> Linalg.Cmat.t -> Linalg.Cmat.t
