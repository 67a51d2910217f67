(** Eigendecomposition of complex Hermitian matrices via the cyclic Jacobi
    method, plus spectral-function helpers used throughout the quantum
    substrate. *)

(** [hermitian a] returns [(w, v)] where [w] holds the eigenvalues of the
    Hermitian matrix [a] in ascending order and the columns of [v] are the
    corresponding orthonormal eigenvectors, so that [a = v * diag w * adjoint v].
    The matrix is symmetrized first; a non-square input raises
    [Invalid_argument]. *)
val hermitian : Cmat.t -> float array * Cmat.t

(** [funm f a] applies the real function [f] to the spectrum of the Hermitian
    matrix [a]: [funm f a = v * diag (f w) * adjoint v]. *)
val funm : (float -> float) -> Cmat.t -> Cmat.t

(** [sqrtm_psd a] is the principal square root of a positive semi-definite
    Hermitian matrix. Slightly negative eigenvalues (numerical noise) are
    clamped to zero. *)
val sqrtm_psd : Cmat.t -> Cmat.t

(** [project_psd ?unit_trace a] projects a Hermitian matrix onto the positive
    semi-definite cone by clipping negative eigenvalues. When [unit_trace] is
    true (default) the result is renormalized to trace one, which makes it a
    valid density matrix. *)
val project_psd : ?unit_trace:bool -> Cmat.t -> Cmat.t

(** [project_psd_vjp a] is [(project_psd a, vjp)]: the unit-trace
    projection, bit-identical to {!project_psd}, together with its
    vector-Jacobian product. [vjp pbar] maps a cotangent of the projection
    to the cotangent of [a] under the real inner product
    [Re (Cmat.hs_inner x y)]: through the trace normalization, the
    eigenvalue clip (Daleckii-Krein, on the eigendecomposition the forward
    pass computed) and the Hermitian symmetrization. The result is
    Hermitian. The fully clipped fallback (maximally mixed state) is
    constant, so its [vjp] is zero. *)
val project_psd_vjp : Cmat.t -> Cmat.t * (Cmat.t -> Cmat.t)

(** [max_eigenvalue a] is the largest eigenvalue of the Hermitian matrix [a]. *)
val max_eigenvalue : Cmat.t -> float
