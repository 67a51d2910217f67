(* Cyclic Jacobi for complex Hermitian matrices. Each rotation first removes
   the phase of the pivot entry a_pq (a diagonal unitary touching column q),
   then applies the classical real Jacobi rotation that annihilates the now
   real pivot. Eigenvectors are accumulated in [v].

   This is the numerical hot path of the whole library (PSD projections run
   inside verification objectives), so the kernels below work directly on
   the split re/im arrays rather than through boxed complex accessors. *)

let off_diagonal_norm2 re im n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let k = (i * n) + j in
        s := !s +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
      end
    done
  done;
  !s

(* column q *= (pr + i pi); operating on an n x n row-major matrix *)
let scale_col re im n q pr pi =
  for k = 0 to n - 1 do
    let idx = (k * n) + q in
    let r = re.(idx) and i = im.(idx) in
    re.(idx) <- (r *. pr) -. (i *. pi);
    im.(idx) <- (r *. pi) +. (i *. pr)
  done

let scale_row re im n q pr pi =
  let base = q * n in
  for k = 0 to n - 1 do
    let idx = base + k in
    let r = re.(idx) and i = im.(idx) in
    re.(idx) <- (r *. pr) -. (i *. pi);
    im.(idx) <- (r *. pi) +. (i *. pr)
  done

(* real Givens rotation on columns (p, q): col_p' = c col_p - s col_q,
   col_q' = s col_p + c col_q *)
let rotate_cols re im n p q c s =
  for k = 0 to n - 1 do
    let ip = (k * n) + p and iq = (k * n) + q in
    let pr = re.(ip) and pi = im.(ip) in
    let qr = re.(iq) and qi = im.(iq) in
    re.(ip) <- (c *. pr) -. (s *. qr);
    im.(ip) <- (c *. pi) -. (s *. qi);
    re.(iq) <- (s *. pr) +. (c *. qr);
    im.(iq) <- (s *. pi) +. (c *. qi)
  done

let rotate_rows re im n p q c s =
  let bp = p * n and bq = q * n in
  for k = 0 to n - 1 do
    let ip = bp + k and iq = bq + k in
    let pr = re.(ip) and pi = im.(ip) in
    let qr = re.(iq) and qi = im.(iq) in
    re.(ip) <- (c *. pr) -. (s *. qr);
    im.(ip) <- (c *. pi) -. (s *. qi);
    re.(iq) <- (s *. pr) +. (c *. qr);
    im.(iq) <- (s *. pi) +. (c *. qi)
  done

let hermitian a0 =
  let n, nc = Cmat.dims a0 in
  if n <> nc then invalid_arg "Eig.hermitian: non-square";
  let h = Cmat.hermitize a0 in
  let are = Array.copy h.Cmat.re and aim = Array.copy h.Cmat.im in
  let vre = Array.make (n * n) 0. and vim = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    vre.((i * n) + i) <- 1.
  done;
  let scale = Cmat.frob_norm h +. 1e-300 in
  let tol2 = 1e-13 *. scale *. (1e-13 *. scale) in
  let max_sweeps = 100 in
  let sweep = ref 0 in
  while off_diagonal_norm2 are aim n > tol2 && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let idx_pq = (p * n) + q in
        let rr = are.(idx_pq) and ri = aim.(idx_pq) in
        let r = sqrt ((rr *. rr) +. (ri *. ri)) in
        if r > 1e-300 then begin
          (* remove the phase: col q *= conj(alpha), row q *= alpha *)
          let pr = rr /. r and pi = ri /. r in
          scale_col are aim n q pr (-.pi);
          scale_row are aim n q pr pi;
          scale_col vre vim n q pr (-.pi);
          (* now a_pq is real = r; classical Jacobi angle *)
          let app = are.((p * n) + p) and aqq = are.((q * n) + q) in
          let tau = (aqq -. app) /. (2. *. r) in
          let t =
            if tau >= 0. then 1. /. (tau +. sqrt ((tau *. tau) +. 1.))
            else -1. /. (-.tau +. sqrt ((tau *. tau) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          rotate_cols are aim n p q c s;
          rotate_rows are aim n p q c s;
          rotate_cols vre vim n p q c s
        end
      done
    done
  done;
  let w = Array.init n (fun i -> are.((i * n) + i)) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare w.(i) w.(j)) order;
  let w_sorted = Array.map (fun i -> w.(i)) order in
  let v_sorted =
    Cmat.init n n (fun i j ->
        let src = (i * n) + order.(j) in
        Cx.make vre.(src) vim.(src))
  in
  (w_sorted, v_sorted)

let funm_of_eig f (w, v) =
  let n = Array.length w in
  let d =
    Cmat.init n n (fun i j -> if i = j then Cx.of_float (f w.(i)) else Cx.zero)
  in
  Cmat.mul3 v d (Cmat.adjoint v)

let funm f a = funm_of_eig f (hermitian a)
let sqrtm_psd a = funm (fun x -> sqrt (Float.max x 0.)) a
let clip x = Float.max x 0.

(* Daleckii-Krein divided differences of [clip] on the spectrum: the
   derivative of [clip] applied to a Hermitian matrix is
   dH -> V (F o (V^dag dH V)) V^dag. [clip] is piecewise linear, so the
   quotient is exact for distinct eigenvalues; equal ones take the one-sided
   slope (0 at a zero eigenvalue, the subgradient at the kink). *)
let clip_divided_differences w =
  let n = Array.length w in
  Array.init (n * n) (fun k ->
      let wi = w.(k / n) and wj = w.(k mod n) in
      if wi = wj then if wi > 0. then 1. else 0.
      else (clip wi -. clip wj) /. (wi -. wj))

let project_psd_vjp a =
  let n = fst (Cmat.dims a) in
  let ((w, v) as eig) = hermitian (Cmat.hermitize a) in
  let clipped = funm_of_eig clip eig in
  let t = Cx.re (Cmat.trace clipped) in
  if t <= 1e-14 then
    (* fully clipped: fall back to the maximally mixed state, a constant *)
    ( Cmat.rscale (1. /. float_of_int n) (Cmat.identity n),
      fun _ -> Cmat.create n n )
  else
    let vjp pbar =
      (* P = C / t with t = Re tr C *)
      let s = Cx.re (Cmat.hs_inner pbar clipped) /. (t *. t) in
      let cbar = Cmat.rscale (1. /. t) pbar in
      for i = 0 to n - 1 do
        let k = (i * n) + i in
        cbar.Cmat.re.(k) <- cbar.Cmat.re.(k) -. s
      done;
      (* C = clip(H): the Daleckii-Krein map is self-adjoint for real
         symmetric F *)
      let f = clip_divided_differences w in
      let inner = Cmat.mul3 (Cmat.adjoint v) cbar v in
      Array.iteri
        (fun k fk ->
          inner.Cmat.re.(k) <- fk *. inner.Cmat.re.(k);
          inner.Cmat.im.(k) <- fk *. inner.Cmat.im.(k))
        f;
      (* H = (A + A^dag) / 2 *)
      Cmat.hermitize (Cmat.mul3 v inner (Cmat.adjoint v))
    in
    (Cmat.rscale (1. /. t) clipped, vjp)

let project_psd ?(unit_trace = true) a =
  if unit_trace then fst (project_psd_vjp a)
  else funm clip (Cmat.hermitize a)

let max_eigenvalue a =
  let w, _ = hermitian a in
  w.(Array.length w - 1)
