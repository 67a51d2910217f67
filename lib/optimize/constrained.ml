type problem = { objective : Objective.t; constraints : Objective.t list }

type solution = {
  x : float array;
  value : float;
  max_violation : float;
  feasible : bool;
  evals : int;
}

let violation constraints x =
  List.fold_left
    (fun acc (g : Objective.t) -> Float.max acc (Float.max 0. (g.Objective.f x)))
    0. constraints

(* f(x) - mu * sum max(0, g(x))^2, with gradient
   grad f - mu * sum 2 max(0, g) grad g when the objective and every
   constraint carry exact gradients (otherwise the solver differentiates
   the whole penalized function numerically) *)
let penalized ~mu problem =
  let obj = problem.objective in
  let f x =
    let pen =
      List.fold_left
        (fun acc (g : Objective.t) ->
          let v = Float.max 0. (g.Objective.f x) in
          acc +. (v *. v))
        0. problem.constraints
    in
    obj.Objective.f x -. (mu *. pen)
  in
  let exact (o : Objective.t) = Option.is_some o.Objective.grad in
  let grad x =
    let d = Objective.gradient obj x in
    List.iter
      (fun (g : Objective.t) ->
        let v = Float.max 0. (g.Objective.f x) in
        if v > 0. then
          Array.iteri
            (fun i gi -> d.(i) <- d.(i) -. (mu *. 2. *. v *. gi))
            (Objective.gradient g x))
      problem.constraints;
    d
  in
  let grad =
    if exact obj && List.for_all exact problem.constraints then Some grad
    else None
  in
  Objective.make ~dim:obj.Objective.dim ~lower:obj.Objective.lower
    ~upper:obj.Objective.upper ?grad f

let maximize ?(budget = 10_000) ?(rounds = 4) ?(tol = 1e-3) ~method_ rng problem
    =
  let obj = problem.objective in
  let total_evals = ref 0 in
  let best = ref None in
  let mu = ref 10. in
  for _ = 1 to rounds do
    let penalized = penalized ~mu:!mu problem in
    let sol = Solvers.maximize ~budget:(budget / rounds) method_ rng penalized in
    total_evals := !total_evals + sol.Solvers.evals;
    let value = obj.Objective.f sol.Solvers.x in
    let max_violation = violation problem.constraints sol.Solvers.x in
    let candidate = { x = sol.Solvers.x; value; max_violation; feasible = max_violation <= tol; evals = 0 } in
    (match !best with
    | None -> best := Some candidate
    | Some b ->
        (* prefer feasible solutions; among feasible, larger objective *)
        let better =
          match (b.feasible, candidate.feasible) with
          | true, false -> false
          | false, true -> true
          | true, true -> candidate.value > b.value
          | false, false -> candidate.max_violation < b.max_violation
        in
        if better then best := Some candidate);
    mu := !mu *. 10.
  done;
  match !best with
  | Some b -> { b with evals = !total_evals }
  | None -> assert false
