open Optimize

let rng () = Stats.Rng.make 321

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* concave quadratic with maximum 3 at (0.5, -0.25) *)
let quadratic =
  Objective.make ~dim:2 (fun x ->
      3. -. (2. *. (x.(0) -. 0.5) ** 2.) -. ((x.(1) +. 0.25) ** 2.))

(* multimodal: global max 1 at x = 0.7 *)
let multimodal =
  Objective.make ~dim:1 (fun x ->
      (0.6 *. exp (-50. *. ((x.(0) +. 0.5) ** 2.)))
      +. exp (-50. *. ((x.(0) -. 0.7) ** 2.)))

let solvers : (string * (Stats.Rng.t -> Objective.t -> Solvers.solution)) list =
  [
    ("adam", fun r o -> Solvers.adam r o);
    ("anneal", fun r o -> Solvers.anneal r o);
    ("genetic", fun r o -> Solvers.genetic r o);
    ("qp", fun r o -> Solvers.qp r o);
  ]

let test_objective_helpers () =
  let o = Objective.make ~dim:3 (fun _ -> 0.) in
  let x = [| -5.; 0.3; 5. |] in
  Objective.clamp o x;
  Alcotest.(check (list (float 1e-12))) "clamped" [ -1.; 0.3; 1. ] (Array.to_list x);
  let r = rng () in
  let p = Objective.random_point o r in
  Array.iter (fun v -> assert (v >= -1. && v <= 1.)) p

let test_num_grad () =
  let o = Objective.make ~dim:2 (fun x -> (x.(0) *. x.(0)) +. (3. *. x.(1))) in
  let g = Objective.num_grad o [| 0.4; 0.1 |] in
  check_float "dx" 0.8 g.(0) ~eps:1e-6;
  check_float "dy" 3. g.(1) ~eps:1e-6

(* x0^2 + 3 x1 with its exact gradient *)
let with_grad =
  Objective.make ~dim:2
    ~grad:(fun x -> [| 2. *. x.(0); 3. |])
    (fun x -> (x.(0) *. x.(0)) +. (3. *. x.(1)))

let test_gradient_dispatch () =
  let x = [| 0.4; 0.1 |] in
  Alcotest.(check (array (float 0.))) "exact gradient used" [| 0.8; 3. |]
    (Objective.gradient with_grad x);
  let without = { with_grad with Objective.grad = None } in
  Alcotest.(check (array (float 0.))) "numeric fallback"
    (Objective.num_grad without x) (Objective.gradient without x)

let test_penalized_gradient () =
  (* one active and one inactive constraint: the composed gradient is
     grad f - mu * 2 max(0, g) grad g over the active one only *)
  let problem =
    {
      Constrained.objective = with_grad;
      constraints =
        [
          Objective.make ~dim:2
            ~grad:(fun _ -> [| 1.; 1. |])
            (fun x -> x.(0) +. x.(1) -. 0.2);
          Objective.make ~dim:2 ~grad:(fun _ -> [| 0.; 1. |]) (fun x -> x.(1) -. 5.);
        ];
    }
  in
  let pen = Constrained.penalized ~mu:10. problem in
  let x = [| 0.4; 0.1 |] in
  let exact = Objective.gradient pen x in
  let numeric = Objective.num_grad pen x in
  Array.iteri (fun i g -> check_float "composed gradient" numeric.(i) g ~eps:1e-6) exact;
  (* a constraint without a gradient leaves the penalized objective numeric *)
  let numeric_only =
    Constrained.penalized ~mu:10.
      {
        problem with
        Constrained.constraints = [ Objective.make ~dim:2 (fun x -> x.(0) -. 0.1) ];
      }
  in
  Alcotest.(check bool) "no exact gradient" true (numeric_only.Objective.grad = None)

(* The exact gradient keeps the solver's schedule: the same iterations,
   each without the 2 * dim central-difference probes. Counted by the
   solver's own metrics. *)
let test_gradient_counters () =
  let run obj =
    Obs.configure ~enabled:true;
    Obs.Metrics.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.reset ();
        Obs.configure ~enabled:false)
      (fun () ->
        let sol = Solvers.maximize ~budget:600 `Qp (rng ()) obj in
        let c ?(labels = []) name =
          Option.value ~default:0
            (Obs.Metrics.counter_value ~labels:(("solver", "quadratic") :: labels) name)
        in
        ( sol.Solvers.evals,
          c "solver_iterations_total",
          c "solver_evals_total",
          c ~labels:[ ("kind", "analytic") ] "solver_gradients_total",
          c ~labels:[ ("kind", "numeric") ] "solver_gradients_total" ))
  in
  let concave =
    Objective.make ~dim:2
      ~grad:(fun x -> [| -2. *. (x.(0) -. 0.5); -2. *. (x.(1) +. 0.25) |])
      (fun x -> -.((x.(0) -. 0.5) ** 2.) -. ((x.(1) +. 0.25) ** 2.))
  in
  let e_evals, e_iters, e_counted, e_analytic, e_numeric = run concave in
  let n_evals, n_iters, n_counted, n_analytic, n_numeric =
    run { concave with Objective.grad = None }
  in
  Alcotest.(check int) "same iterations" n_iters e_iters;
  Alcotest.(check int) "evals counter = solution evals" e_evals e_counted;
  Alcotest.(check int) "numeric evals counter = solution evals" n_evals n_counted;
  Alcotest.(check int) "no numeric gradients" 0 e_numeric;
  Alcotest.(check int) "no analytic gradients" 0 n_analytic;
  Alcotest.(check bool) "gradients counted" true (e_analytic > 0 && n_numeric > 0);
  Alcotest.(check bool) "fewer evals" true (e_evals < n_evals)

let test_solvers_quadratic () =
  List.iter
    (fun (name, solve) ->
      let sol = solve (rng ()) quadratic in
      if Float.abs (sol.Solvers.value -. 3.) > 0.05 then
        Alcotest.failf "%s missed quadratic max: %.4f" name sol.Solvers.value)
    solvers

let test_solvers_multimodal () =
  (* global-capable solvers should escape the local bump *)
  List.iter
    (fun (name, solve) ->
      let sol = solve (rng ()) multimodal in
      if Float.abs (sol.Solvers.value -. 1.) > 0.1 then
        Alcotest.failf "%s missed global max: %.4f at %.3f" name
          sol.Solvers.value sol.Solvers.x.(0))
    [ ("anneal", fun r o -> Solvers.anneal r o);
      ("genetic", fun r o -> Solvers.genetic r o) ]

let test_solution_within_bounds () =
  List.iter
    (fun (name, solve) ->
      let sol = solve (rng ()) quadratic in
      Array.iter
        (fun v ->
          if v < -1.0001 || v > 1.0001 then
            Alcotest.failf "%s left the box" name)
        sol.Solvers.x)
    solvers

let test_evals_counted () =
  let sol = Solvers.anneal ~iters:100 ~restarts:1 (rng ()) quadratic in
  assert (sol.Solvers.evals >= 100)

let test_maximize_dispatch () =
  List.iter
    (fun m ->
      let sol = Solvers.maximize ~budget:4000 m (rng ()) quadratic in
      if Float.abs (sol.Solvers.value -. 3.) > 0.1 then
        Alcotest.failf "%s dispatch failed: %f" (Solvers.method_to_string m)
          sol.Solvers.value)
    [ `Adam; `Anneal; `Genetic; `Qp ]

(* ---------------- convergence on the shared quadratic fixture -----------

   Every solver, several fixed seeds, explicit budgets. [scale] multiplies
   the iteration budget so the same closure can check both "converges at
   full budget" and "more budget never materially hurts". *)

let convergence_cases :
    (string * (int -> int -> Solvers.solution) * float * float) list =
  [
    ( "adam",
      (fun seed scale ->
        Solvers.adam ~iters:(150 * scale) ~restarts:2 (Stats.Rng.make seed)
          quadratic),
      1e-3,
      0.05 );
    ( "anneal",
      (fun seed scale ->
        Solvers.anneal ~iters:(400 * scale) ~restarts:2 (Stats.Rng.make seed)
          quadratic),
      0.03,
      0.3 );
    ( "genetic",
      (fun seed scale ->
        Solvers.genetic ~generations:(15 * scale) ~population:24
          (Stats.Rng.make seed) quadratic),
      0.03,
      0.3 );
    ( "qp",
      (fun seed scale ->
        Solvers.qp ~iters:(25 * scale) ~restarts:2 (Stats.Rng.make seed)
          quadratic),
      1e-6,
      1e-2 );
  ]

let convergence_seeds = [ 11; 222; 3333 ]

let test_convergence_all_solvers () =
  List.iter
    (fun (name, run, vtol, xtol) ->
      List.iter
        (fun seed ->
          let sol = run seed 4 in
          if Float.abs (sol.Solvers.value -. 3.) > vtol then
            Alcotest.failf "%s (seed %d) value %.6f not within %g of 3" name
              seed sol.Solvers.value vtol;
          if
            Float.abs (sol.Solvers.x.(0) -. 0.5) > xtol
            || Float.abs (sol.Solvers.x.(1) +. 0.25) > xtol
          then
            Alcotest.failf "%s (seed %d) converged to (%.3f, %.3f), not (0.5, -0.25)"
              name seed sol.Solvers.x.(0) sol.Solvers.x.(1))
        convergence_seeds)
    convergence_cases

let test_convergence_budget_monotone () =
  (* quadrupling the budget on the same seed must not materially lose value
     (stochastic solvers consume randomness differently per budget, hence
     the tolerance rather than strict monotonicity) *)
  List.iter
    (fun (name, run, _, _) ->
      List.iter
        (fun seed ->
          let lo = run seed 1 and hi = run seed 4 in
          if hi.Solvers.value < lo.Solvers.value -. 0.05 then
            Alcotest.failf "%s (seed %d) got worse with budget: %.4f -> %.4f"
              name seed lo.Solvers.value hi.Solvers.value)
        convergence_seeds)
    convergence_cases

(* constrained: max x + y subject to x + y <= 1 -> value 1 *)
let test_constrained_active () =
  let problem =
    {
      Constrained.objective = Objective.make ~dim:2 (fun x -> x.(0) +. x.(1));
      constraints = [ Objective.make ~dim:2 (fun x -> x.(0) +. x.(1) -. 1.) ];
    }
  in
  let sol = Constrained.maximize ~budget:20000 ~method_:`Anneal (rng ()) problem in
  assert sol.Constrained.feasible;
  check_float "active constraint" 1. sol.Constrained.value ~eps:0.05

let test_constrained_inactive () =
  (* unconstrained max (0,0) already feasible *)
  let problem =
    {
      Constrained.objective =
        Objective.make ~dim:2 (fun x -> -.(x.(0) ** 2.) -. (x.(1) ** 2.));
      constraints = [ Objective.make ~dim:2 (fun x -> x.(0) -. 10.) ];
    }
  in
  let sol = Constrained.maximize ~method_:`Qp (rng ()) problem in
  assert sol.Constrained.feasible;
  check_float "interior max" 0. sol.Constrained.value ~eps:0.01

let test_constrained_infeasible () =
  (* contradictory constraints must be reported infeasible *)
  let problem =
    {
      Constrained.objective = Objective.make ~dim:1 (fun x -> x.(0));
      constraints =
        [
          Objective.make ~dim:1 (fun x -> x.(0) -. 0.5);
          Objective.make ~dim:1 (fun x -> 0.6 -. x.(0));
        ];
    }
  in
  let sol = Constrained.maximize ~method_:`Anneal (rng ()) problem in
  assert (not sol.Constrained.feasible)

let test_qp_exact_on_quadratic () =
  (* the QP solver should nail a pure quadratic very precisely *)
  let sol = Solvers.qp ~iters:100 ~restarts:2 (rng ()) quadratic in
  check_float "qp value" 3. sol.Solvers.value ~eps:1e-3;
  check_float "qp x0" 0.5 sol.Solvers.x.(0) ~eps:0.05;
  check_float "qp x1" (-0.25) sol.Solvers.x.(1) ~eps:0.05

let prop_solutions_bounded =
  QCheck.Test.make ~name:"random quadratics stay bounded" ~count:20
    QCheck.(pair (float_range (-0.9) 0.9) (float_range (-0.9) 0.9))
    (fun (cx, cy) ->
      let o =
        Objective.make ~dim:2 (fun x ->
            -.((x.(0) -. cx) ** 2.) -. ((x.(1) -. cy) ** 2.))
      in
      let sol = Solvers.qp ~iters:40 ~restarts:2 (rng ()) o in
      sol.Solvers.value > -0.2)

let () =
  Alcotest.run "optimize"
    [
      ( "objective",
        [
          Alcotest.test_case "helpers" `Quick test_objective_helpers;
          Alcotest.test_case "num grad" `Quick test_num_grad;
          Alcotest.test_case "gradient dispatch" `Quick test_gradient_dispatch;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "quadratic" `Quick test_solvers_quadratic;
          Alcotest.test_case "multimodal" `Quick test_solvers_multimodal;
          Alcotest.test_case "bounds" `Quick test_solution_within_bounds;
          Alcotest.test_case "eval counting" `Quick test_evals_counted;
          Alcotest.test_case "dispatch" `Quick test_maximize_dispatch;
          Alcotest.test_case "qp exact" `Quick test_qp_exact_on_quadratic;
          Alcotest.test_case "gradient counters" `Quick test_gradient_counters;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "all solvers, fixed seeds" `Quick
            test_convergence_all_solvers;
          Alcotest.test_case "budget monotone" `Quick
            test_convergence_budget_monotone;
        ] );
      ( "constrained",
        [
          Alcotest.test_case "active" `Quick test_constrained_active;
          Alcotest.test_case "inactive" `Quick test_constrained_inactive;
          Alcotest.test_case "infeasible" `Quick test_constrained_infeasible;
          Alcotest.test_case "penalized gradient" `Quick test_penalized_gradient;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_solutions_bounded ]);
    ]
