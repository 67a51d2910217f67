open Linalg

type env = int -> Cmat.t

type t =
  | Is_pure of int
  | Purity_ge of int * float
  | Equals of int * int
  | Equals_const of int * Cmat.t
  | Not_equals_const of int * Cmat.t * float
  | Distance_le of int * int * float
  | Expect_ge of int * Qstate.Pauli.t * float
  | Expect_le of int * Qstate.Pauli.t * float
  | Diag_in_range of int * int * float * float
  | Phase_diff of int * int * float
  | Custom of string * (env -> float)

let purity rho =
  let f = Cmat.frob_norm rho in
  f *. f

let eval p (env : env) =
  match p with
  | Is_pure tp ->
      let rho = env tp in
      Cmat.frob_norm (Cmat.sub (Cmat.mul rho (Cmat.adjoint rho)) rho)
  | Purity_ge (tp, bound) -> bound -. purity (env tp)
  | Equals (a, b) -> Cmat.frob_norm (Cmat.sub (env a) (env b))
  | Equals_const (tp, c) -> Cmat.frob_norm (Cmat.sub (env tp) c)
  | Not_equals_const (tp, c, margin) ->
      margin -. Cmat.frob_norm (Cmat.sub (env tp) c)
  | Distance_le (a, b, bound) ->
      Cmat.frob_norm (Cmat.sub (env a) (env b)) -. bound
  | Expect_ge (tp, pauli, bound) ->
      bound -. Qstate.Pauli.expectation_dm pauli (env tp)
  | Expect_le (tp, pauli, bound) ->
      Qstate.Pauli.expectation_dm pauli (env tp) -. bound
  | Diag_in_range (tp, k, lo, hi) ->
      let v = Cx.re (Cmat.get (env tp) k k) in
      Float.max (lo -. v) (v -. hi)
  | Phase_diff (a, b, angle) ->
      (* compare the phases of the |0><1| coherences of two 1-qubit states *)
      let pa = Cx.arg (Cmat.get (env a) 0 1) and pb = Cx.arg (Cmat.get (env b) 0 1) in
      let diff = Float.abs (pa -. pb) in
      let diff = Float.min diff ((2. *. Float.pi) -. diff) in
      Float.abs (diff -. angle) -. 1e-9
  | Custom (_, f) -> f env

(* d ||D|| = Re <D / ||D||, dD>; the zero subgradient at D = 0 *)
let unit_direction d =
  let n = Cmat.frob_norm d in
  if n > 0. then Cmat.rscale (1. /. n) d else Cmat.rscale 0. d

let vjp = function
  | Phase_diff _ | Custom _ -> None
  | Is_pure tp ->
      Some
        (fun (env : env) ->
          (* E = rho rho^dag - rho: d||E|| = Re <(E rho + E^dag rho - E) / ||E||, d rho> *)
          let rho = env tp in
          let e = Cmat.sub (Cmat.mul rho (Cmat.adjoint rho)) rho in
          let n = Cmat.frob_norm e in
          let g =
            Cmat.sub (Cmat.add (Cmat.mul e rho) (Cmat.mul (Cmat.adjoint e) rho)) e
          in
          [ (tp, if n > 0. then Cmat.rscale (1. /. n) g else Cmat.rscale 0. g) ])
  | Purity_ge (tp, _) -> Some (fun env -> [ (tp, Cmat.rscale (-2.) (env tp)) ])
  | Equals (a, b) | Distance_le (a, b, _) ->
      Some
        (fun env ->
          let u = unit_direction (Cmat.sub (env a) (env b)) in
          [ (a, u); (b, Cmat.rscale (-1.) u) ])
  | Equals_const (tp, c) ->
      Some (fun env -> [ (tp, unit_direction (Cmat.sub (env tp) c)) ])
  | Not_equals_const (tp, c, _) ->
      Some
        (fun env ->
          [ (tp, Cmat.rscale (-1.) (unit_direction (Cmat.sub (env tp) c))) ])
  (* Re tr(P rho) = Re <P, rho> for Hermitian P *)
  | Expect_ge (tp, pauli, _) ->
      let g = Cmat.rscale (-1.) (Qstate.Pauli.matrix pauli) in
      Some (fun _ -> [ (tp, g) ])
  | Expect_le (tp, pauli, _) ->
      let g = Qstate.Pauli.matrix pauli in
      Some (fun _ -> [ (tp, g) ])
  | Diag_in_range (tp, k, lo, hi) ->
      Some
        (fun env ->
          let rho = env tp in
          let d, _ = Cmat.dims rho in
          let v = Cx.re (Cmat.get rho k k) in
          let g = Cmat.create d d in
          Cmat.set g k k (Cx.of_float (if lo -. v > v -. hi then -1. else 1.));
          [ (tp, g) ])

let holds ?(tol = 1e-6) p env = eval p env <= tol

let tracepoints = function
  | Is_pure tp
  | Purity_ge (tp, _)
  | Equals_const (tp, _)
  | Not_equals_const (tp, _, _)
  | Expect_ge (tp, _, _)
  | Expect_le (tp, _, _)
  | Diag_in_range (tp, _, _, _) ->
      [ tp ]
  | Equals (a, b) | Distance_le (a, b, _) | Phase_diff (a, b, _) -> [ a; b ]
  | Custom _ -> []

let describe = function
  | Is_pure tp -> Printf.sprintf "is_pure(T%d)" tp
  | Purity_ge (tp, b) -> Printf.sprintf "purity(T%d) >= %g" tp b
  | Equals (a, b) -> Printf.sprintf "T%d == T%d" a b
  | Equals_const (tp, _) -> Printf.sprintf "T%d == <const>" tp
  | Not_equals_const (tp, _, m) -> Printf.sprintf "T%d != <const> (margin %g)" tp m
  | Distance_le (a, b, d) -> Printf.sprintf "||T%d - T%d|| <= %g" a b d
  | Expect_ge (tp, p, b) ->
      Printf.sprintf "<%s>(T%d) >= %g" (Qstate.Pauli.to_string p) tp b
  | Expect_le (tp, p, b) ->
      Printf.sprintf "<%s>(T%d) <= %g" (Qstate.Pauli.to_string p) tp b
  | Diag_in_range (tp, k, lo, hi) ->
      Printf.sprintf "T%d[%d][%d] in [%g, %g]" tp k k lo hi
  | Phase_diff (a, b, angle) -> Printf.sprintf "phase(T%d, T%d) == %g" a b angle
  | Custom (name, _) -> name
