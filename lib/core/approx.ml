open Linalg

type recovery = [ `Least_squares | `Expectation ]

type t = {
  n_in : int;
  inputs : Cmat.t array;
  outputs : (int * Cmat.t array) list;
  basis : Rmat.t Lazy.t;
  solver : Rmat.lstsq Lazy.t;
}

let build_basis ~n_in inputs =
  lazy
    (let d = 1 lsl n_in in
     let rows = Hsvec.dim d in
     let cols = Array.length inputs in
     let b = Rmat.create rows cols in
     Array.iteri
       (fun j input ->
         let v = Hsvec.encode input in
         Array.iteri (fun i x -> Rmat.set b i j x) v)
       inputs;
     b)

let make ~n_in ~inputs ~outputs =
  if Array.length inputs = 0 then invalid_arg "Approx.make: no samples";
  List.iter
    (fun (_, states) ->
      if Array.length states <> Array.length inputs then
        invalid_arg "Approx.make: sample count mismatch")
    outputs;
  let basis = build_basis ~n_in inputs in
  let solver = lazy (Rmat.lstsq_factor ~ridge:1e-9 (Lazy.force basis)) in
  { n_in; inputs; outputs; basis; solver }

let of_characterization (c : Characterize.t) =
  let n_in = Program.num_input_qubits c.Characterize.program in
  let samples = c.Characterize.samples in
  if Array.length samples = 0 then
    invalid_arg "Approx.of_characterization: no samples";
  let inputs = Array.map (fun s -> s.Characterize.input_dm) samples in
  let ids = List.map fst samples.(0).Characterize.traces in
  let outputs =
    List.map
      (fun id ->
        ( id,
          Array.map
            (fun s -> List.assoc id s.Characterize.traces)
            samples ))
      ids
  in
  make ~n_in ~inputs ~outputs

let n_sample t = Array.length t.inputs
let tracepoint_ids t = List.map fst t.outputs

let decompose ?(mode = `Least_squares) t rho =
  let d = 1 lsl t.n_in in
  let rd, cd = Cmat.dims rho in
  if rd <> d || cd <> d then invalid_arg "Approx.decompose: dimension mismatch";
  match mode with
  | `Expectation ->
      Array.map (fun sigma -> Cx.re (Cmat.hs_inner sigma rho)) t.inputs
  | `Least_squares -> (Lazy.force t.solver).Rmat.solve (Hsvec.encode rho)

(* acc += a * s entrywise, in sample order into one buffer: the same
   operations in the same order as summing [Cmat.rscale a s] matrices, so
   the result is bit-identical to that formulation *)
let combine states alpha =
  if Array.length states <> Array.length alpha then
    invalid_arg "Approx: coefficient count mismatch";
  let d, _ = Cmat.dims states.(0) in
  let acc = Cmat.create d d in
  let re = acc.Cmat.re and im = acc.Cmat.im in
  Array.iteri
    (fun i a ->
      if a <> 0. then begin
        let s = states.(i) in
        for k = 0 to Array.length re - 1 do
          re.(k) <- re.(k) +. (a *. s.Cmat.re.(k));
          im.(k) <- im.(k) +. (a *. s.Cmat.im.(k))
        done
      end)
    alpha;
  acc

(* adjoint of [combine states]: abar_i = Re <gbar, s_i> *)
let combine_vjp states gbar abar =
  Array.iteri
    (fun i s -> abar.(i) <- abar.(i) +. Cx.re (Cmat.hs_inner gbar s))
    states

let input_of_alpha t alpha = combine t.inputs alpha

let tracepoint_of_alpha t ~tracepoint alpha =
  match List.assoc_opt tracepoint t.outputs with
  | Some states -> combine states alpha
  | None -> raise Not_found

let state_at ?mode ?(physical = true) t ~tracepoint rho_in =
  let alpha = decompose ?mode t rho_in in
  let raw = tracepoint_of_alpha t ~tracepoint alpha in
  if physical then Eig.project_psd raw else raw

type projection = [ `Trace | `Psd ]

type point = {
  approx : t;
  alpha : float array;
  phys : float array;
  states : (int, Cmat.t) Hashtbl.t;
  pullback : float array -> float array;
}

let states_of t tp =
  if tp = 0 then t.inputs
  else match List.assoc_opt tp t.outputs with Some s -> s | None -> raise Not_found

let point ~projection t alpha =
  let alpha = Array.copy alpha in
  let raw = input_of_alpha t alpha in
  let phys, pullback =
    match projection with
    | `Trace ->
        let tr = Cx.re (Cmat.trace raw) in
        if Float.abs tr > 1e-9 then
          (* a = alpha / tr with tr = sum_i alpha_i tr(sigma_i) *)
          let tau = Array.map (fun s -> Cx.re (Cmat.trace s)) t.inputs in
          let pullback abar =
            let c = ref 0. in
            Array.iteri (fun j ab -> c := !c +. (ab *. alpha.(j))) abar;
            Array.mapi
              (fun i ab -> (ab /. tr) -. (tau.(i) *. !c /. (tr *. tr)))
              abar
          in
          (Array.map (fun a -> a /. tr) alpha, pullback)
        else (alpha, Array.copy)
    | `Psd ->
        let projected, psd_vjp = Eig.project_psd_vjp raw in
        let solver = Lazy.force t.solver in
        let pullback abar =
          let d = 1 lsl t.n_in in
          let rbar = psd_vjp (Hsvec.decode d (solver.Rmat.adjoint abar)) in
          let g = Array.make (Array.length alpha) 0. in
          combine_vjp t.inputs rbar g;
          g
        in
        (decompose ~mode:`Least_squares t projected, pullback)
  in
  { approx = t; alpha; phys; states = Hashtbl.create 4; pullback }

let point_state p tp =
  match Hashtbl.find_opt p.states tp with
  | Some m -> m
  | None ->
      let m = combine (states_of p.approx tp) p.phys in
      Hashtbl.replace p.states tp m;
      m

let point_vjp p cotangents =
  let abar = Array.make (Array.length p.phys) 0. in
  List.iter
    (fun (tp, gbar) -> combine_vjp (states_of p.approx tp) gbar abar)
    cotangents;
  p.pullback abar

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let evaluator ~projection t =
  let last = ref None in
  fun alpha ->
    match !last with
    | Some p when same_bits p.alpha alpha -> p
    | _ ->
        let p = point ~projection t alpha in
        last := Some p;
        p

let accuracy approx truth =
  let d, _ = Cmat.dims truth in
  let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
  let n = log2 0 d in
  Qstate.Density.fidelity
    (Qstate.Density.of_cmat n (Eig.project_psd approx))
    (Qstate.Density.of_cmat n (Eig.project_psd truth))

let theoretical_accuracy ~n_in ~n_sample =
  Float.min 1. (float_of_int n_sample /. float_of_int (1 lsl (n_in + 1)))

let samples_for_full_accuracy ~n_in = 1 lsl (n_in + 1)

let chain fs rho = List.fold_left (fun acc f -> f acc) rho fs
