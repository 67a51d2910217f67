open Morphcore
open Linalg

let rng () = Stats.Rng.make 2024

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let dm_of_state st =
  let v = Qstate.Statevec.to_cvec st in
  Cmat.outer v v

let zero_dm = dm_of_state (Qstate.Statevec.basis 1 0)
let one_dm = dm_of_state (Qstate.Statevec.basis 1 1)

(* ---------------- Program ---------------- *)

let test_program_embed () =
  let c = Circuit.empty 3 in
  let p = Program.make ~input_qubits:[ 2 ] c in
  let embedded = Program.embed p (Qstate.Statevec.basis 1 1) in
  check_float "q2 set" 1. (Qstate.Statevec.prob1 embedded 2);
  check_float "q0 clear" 0. (Qstate.Statevec.prob1 embedded 0)

let test_program_run_traces_includes_input () =
  let c = Circuit.(empty 2 |> tracepoint 1 [ 0 ]) in
  let p = Program.make c in
  let traces = Program.run_traces p ~input:(Qstate.Statevec.basis 2 1) in
  assert (List.mem_assoc 0 traces);
  assert (List.mem_assoc 1 traces)

(* ---------------- Predicate ---------------- *)

let env_const m : Predicate.env = fun _ -> m

let test_predicate_is_pure () =
  assert (Predicate.holds (Predicate.Is_pure 0) (env_const zero_dm));
  let mixed = Cmat.rscale 0.5 (Cmat.identity 2) in
  assert (not (Predicate.holds (Predicate.Is_pure 0) (env_const mixed)))

let test_predicate_equals () =
  let env tp = if tp = 0 then zero_dm else one_dm in
  assert (not (Predicate.holds (Predicate.Equals (0, 1)) env));
  assert (Predicate.holds (Predicate.Equals (0, 0)) env);
  assert (Predicate.holds (Predicate.Equals_const (1, one_dm)) env);
  assert (Predicate.holds (Predicate.Not_equals_const (1, zero_dm, 0.5)) env)

let test_predicate_expectation () =
  let z = Qstate.Pauli.single 1 0 Qstate.Pauli.Z in
  assert (Predicate.holds (Predicate.Expect_ge (0, z, 0.9)) (env_const zero_dm));
  assert (not (Predicate.holds (Predicate.Expect_ge (0, z, 0.9)) (env_const one_dm)));
  assert (Predicate.holds (Predicate.Expect_le (0, z, -0.9)) (env_const one_dm))

let test_predicate_diag_range () =
  assert (Predicate.holds (Predicate.Diag_in_range (0, 0, 0.9, 1.1)) (env_const zero_dm));
  assert (not (Predicate.holds (Predicate.Diag_in_range (0, 1, 0.5, 1.)) (env_const zero_dm)))

let test_predicate_purity_ge () =
  assert (Predicate.holds (Predicate.Purity_ge (0, 0.99)) (env_const zero_dm));
  let mixed = Cmat.rscale 0.5 (Cmat.identity 2) in
  assert (not (Predicate.holds (Predicate.Purity_ge (0, 0.9)) (env_const mixed)))

let test_predicate_tracepoints () =
  Alcotest.(check (list int)) "equals" [ 1; 2 ]
    (Predicate.tracepoints (Predicate.Equals (1, 2)));
  Alcotest.(check (list int)) "const" [ 3 ]
    (Predicate.tracepoints (Predicate.Equals_const (3, zero_dm)))

(* ---------------- Assertion ---------------- *)

let test_assertion_implication () =
  (* failed assumption -> assertion holds vacuously *)
  let a =
    Assertion.make
      ~assumes:[ Predicate.Equals_const (0, one_dm) ]
      ~guarantees:[ Predicate.Equals_const (0, one_dm) ]
      ()
  in
  assert (Assertion.holds a (env_const zero_dm));
  (* satisfied assumption + violated guarantee -> fails *)
  let b =
    Assertion.make
      ~assumes:[ Predicate.Is_pure 0 ]
      ~guarantees:[ Predicate.Equals_const (0, one_dm) ]
      ()
  in
  assert (not (Assertion.holds b (env_const zero_dm)))

let test_assertion_requires_guarantee () =
  Alcotest.check_raises "empty guarantee"
    (Invalid_argument "Assertion.make: no guarantees") (fun () ->
      ignore (Assertion.make ~assumes:[] ~guarantees:[] ()))

(* ---------------- Characterize / Approx ---------------- *)

let identity_program n =
  Program.make Circuit.(empty n |> tracepoint 1 (List.init n (fun q -> q)))

let test_characterize_shapes () =
  let r = rng () in
  let p = identity_program 2 in
  let c = Characterize.run ~rng:r p ~count:6 in
  Alcotest.(check int) "samples" 6 (Array.length c.Characterize.samples);
  Alcotest.(check (list int)) "tracepoints" [ 0; 1 ] (Characterize.tracepoint_ids c);
  assert (c.Characterize.cost.Sim.Cost.executions > 0)

let test_characterize_custom_inputs () =
  let r = rng () in
  let p = identity_program 1 in
  let inputs = [ Qstate.Statevec.basis 1 0; Qstate.Statevec.basis 1 1 ] in
  let c = Characterize.run ~rng:r ~inputs p ~count:0 in
  Alcotest.(check int) "two samples" 2 (Array.length c.Characterize.samples)

let test_characterize_tomography_cost () =
  let r = rng () in
  let p = identity_program 1 in
  let c =
    Characterize.run ~rng:r ~mode:(Characterize.Tomography { shots = 100; project = true })
      p ~count:2
  in
  (* 2 samples x (1 tracepoint x 3 settings) = 6 executions *)
  Alcotest.(check int) "executions" 6 c.Characterize.cost.Sim.Cost.executions;
  Alcotest.(check int) "shots" 600 c.Characterize.cost.Sim.Cost.shots

let test_approx_exact_on_identity () =
  (* identity program: tracepoint state must equal the input exactly for any
     input in the sampled span *)
  let r = rng () in
  let p = identity_program 1 in
  (* the 1-qubit tomography basis spans the full Hermitian space *)
  let plus =
    Qstate.Statevec.of_cvec 1
      (Cvec.rscale (1. /. sqrt 2.) (Cvec.of_list [ Cx.one; Cx.one ]))
  in
  let plus_i =
    Qstate.Statevec.of_cvec 1
      (Cvec.rscale (1. /. sqrt 2.) (Cvec.of_list [ Cx.one; Cx.i ]))
  in
  let inputs =
    [ Qstate.Statevec.basis 1 0; Qstate.Statevec.basis 1 1; plus; plus_i ]
  in
  let c = Characterize.run ~rng:r ~inputs p ~count:0 in
  let approx = Approx.of_characterization c in
  for _ = 1 to 10 do
    let test_in = dm_of_state (Clifford.Sampling.haar_state r 1) in
    let out = Approx.state_at approx ~tracepoint:1 test_in in
    let acc = Approx.accuracy out test_in in
    check_float "identity accuracy" 1. acc ~eps:1e-6
  done

let test_approx_case1_exact () =
  (* Theorem 2 case 1: inputs in the sampled span are exactly reproduced,
     through a non-trivial unitary *)
  let r = rng () in
  let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> rz 0.37 1 |> tracepoint 1 [ 0; 1 ]) in
  let p = Program.make circ in
  let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:8 in
  let approx = Approx.of_characterization c in
  (* mixture of sampled inputs = case 1 *)
  let sampled = Array.to_list (Array.map (fun s -> s.Characterize.input_state) c.Characterize.samples) in
  let rho_in = Clifford.Sampling.random_mixture r sampled in
  let predicted = Approx.state_at approx ~tracepoint:1 rho_in in
  (* ground truth by density simulation *)
  let truth =
    let dm = Qstate.Density.of_cmat 2 rho_in in
    let o = Sim.Dm_engine.run ~initial:dm circ in
    List.assoc 1 o.Sim.Dm_engine.traces
  in
  check_float "case1 exact" 1. (Approx.accuracy predicted truth) ~eps:1e-6

let test_approx_accuracy_improves_with_samples () =
  let r = rng () in
  let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> t_gate 1 |> tracepoint 1 [ 0; 1 ]) in
  let p = Program.make circ in
  let acc_at count =
    let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count in
    let approx = Approx.of_characterization c in
    let accs = Verify.probe_accuracies ~rng:r ~count:12 approx p ~tracepoint:1 in
    Stats.Describe.mean accs
  in
  let low = acc_at 2 and high = acc_at 16 in
  if high < low +. 0.05 then
    Alcotest.failf "accuracy did not improve: %.3f -> %.3f" low high;
  if high < 0.95 then Alcotest.failf "high-sample accuracy too low: %.3f" high

let test_approx_theoretical_accuracy () =
  check_float "half" 0.5 (Approx.theoretical_accuracy ~n_in:2 ~n_sample:4);
  check_float "capped" 1. (Approx.theoretical_accuracy ~n_in:1 ~n_sample:100);
  Alcotest.(check int) "full samples" 8 (Approx.samples_for_full_accuracy ~n_in:2)

let test_approx_decompose_modes () =
  let r = rng () in
  let p = identity_program 1 in
  let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:6 in
  let approx = Approx.of_characterization c in
  let rho = dm_of_state (Clifford.Sampling.haar_state r 1) in
  let a_ls = Approx.decompose ~mode:`Least_squares approx rho in
  let a_exp = Approx.decompose ~mode:`Expectation approx rho in
  Alcotest.(check int) "dims" (Array.length a_ls) (Array.length a_exp);
  (* least squares reconstruction beats the expectation heuristic *)
  let err mode_alpha =
    Cmat.frob_norm (Cmat.sub rho (Approx.input_of_alpha approx mode_alpha))
  in
  assert (err a_ls <= err a_exp +. 1e-9)

let test_approx_chain () =
  let f1 rho = Cmat.rscale 2. rho and f2 rho = Cmat.rscale 3. rho in
  let out = Approx.chain [ f1; f2 ] (Cmat.identity 2) in
  check_float "chained scale" 6. (Cx.re (Cmat.get out 0 0))

(* ---------------- Confidence ---------------- *)

let test_confidence_increases_with_samples () =
  let accs = [| 0.55; 0.6; 0.62; 0.58; 0.63; 0.57 |] in
  let low = (Confidence.estimate ~n_in:3 ~n_sample:4 accs).Confidence.confidence in
  let high = (Confidence.estimate ~n_in:3 ~n_sample:16 accs).Confidence.confidence in
  if high < low then Alcotest.fail "confidence must grow with samples"

let test_confidence_bounds () =
  let c = Confidence.estimate ~n_in:2 ~n_sample:8 [| 0.9; 0.95; 0.92 |] in
  assert (c.Confidence.confidence >= 0. && c.Confidence.confidence <= 1.)

let test_confidence_required_samples () =
  Alcotest.(check int) "required" 8
    (Confidence.required_samples ~n_in:2 ~target_accuracy:1.);
  Alcotest.(check int) "half" 4
    (Confidence.required_samples ~n_in:2 ~target_accuracy:0.5)

let test_exhaustive_confidence () =
  check_float "linear" 0.5 (Confidence.exhaustive_confidence ~space:100. ~tested:50.);
  check_float "capped" 1. (Confidence.exhaustive_confidence ~space:10. ~tested:20.)

(* ---------------- Prune ---------------- *)

let test_prune_adapt () =
  let r = rng () in
  (* dataset concentrated on |0> and |1>: two eigenvectors suffice *)
  let dataset =
    List.init 20 (fun i -> if i mod 2 = 0 then zero_dm else one_dm)
  in
  let kept = Prune.strategy_adapt ~energy:0.99 dataset in
  Alcotest.(check int) "two directions" 2 (List.length kept);
  let top = Prune.strategy_adapt_top ~keep:1 dataset in
  Alcotest.(check int) "top 1" 1 (List.length top);
  ignore r

let test_prune_const () =
  let p = Program.make (Circuit.empty 3) in
  let restricted = Prune.strategy_const p ~variable_qubits:[ 0; 1 ] in
  Alcotest.(check int) "restricted input" 2 (Program.num_input_qubits restricted);
  Alcotest.check_raises "not a subset"
    (Invalid_argument "Prune.strategy_const: qubit not in the current input")
    (fun () ->
      ignore (Prune.strategy_const restricted ~variable_qubits:[ 2 ]))

let test_prune_prop_reduction () =
  Alcotest.(check int) "3^2" 9 (Prune.prop_shot_reduction ~n_t:2);
  Alcotest.(check int) "3^4" 81 (Prune.prop_shot_reduction ~n_t:4)

(* ---------------- Verify (end to end) ---------------- *)

let lock_program ?unexpected_key () =
  let lock = Benchmarks.Quantum_lock.make ~key:1 ?unexpected_key 3 in
  ( Program.make ~input_qubits:lock.Benchmarks.Quantum_lock.key_qubits
      lock.Benchmarks.Quantum_lock.circuit,
    lock )

let lock_assertion =
  Assertion.make ~name:"lock"
    ~assumes:[ Predicate.Diag_in_range (1, 1, 0., 0.01) ]
    ~guarantees:[ Predicate.Equals_const (2, zero_dm) ]
    ()

let test_verify_correct_lock () =
  let r = rng () in
  let prog, _ = lock_program () in
  let c = Characterize.run ~rng:r prog ~count:16 in
  let approx = Approx.of_characterization c in
  match Verify.validate ~rng:r ~confirm:prog approx lock_assertion with
  | Verify.Verified _ -> ()
  | Verify.Violated { objective; _ } ->
      Alcotest.failf "false positive on correct lock (obj %.3f)" objective

let test_verify_buggy_lock () =
  let r = rng () in
  let prog, _ = lock_program ~unexpected_key:6 () in
  let c = Characterize.run ~rng:r prog ~count:16 in
  let approx = Approx.of_characterization c in
  match Verify.validate ~rng:r ~confirm:prog approx lock_assertion with
  | Verify.Violated { counterexample; _ } ->
      (* counterexample must be a valid state *)
      assert (Qstate.Density.is_valid ~eps:1e-6 (Qstate.Density.of_cmat 3 counterexample))
  | Verify.Verified _ -> Alcotest.fail "missed the planted bug"

let test_verify_teleport () =
  let r = rng () in
  let prog = Program.make ~input_qubits:[ 0 ] (Benchmarks.Teleport.single ()) in
  let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar prog ~count:6 in
  let approx = Approx.of_characterization c in
  let a =
    Assertion.make ~name:"teleport"
      ~assumes:[ Predicate.Is_pure 0 ]
      ~guarantees:[ Predicate.Equals (0, 2) ]
      ()
  in
  match Verify.validate ~rng:r approx a with
  | Verify.Verified { max_objective; _ } ->
      if max_objective > 0.05 then Alcotest.fail "objective should be ~0"
  | Verify.Violated _ -> Alcotest.fail "teleportation is correct"

let test_verify_check_on_program () =
  let prog, _ = lock_program ~unexpected_key:6 () in
  (* basis input 6 violates; basis input 3 satisfies *)
  assert (not (Verify.check_on_program prog lock_assertion ~input:(Qstate.Statevec.basis 3 6)));
  assert (Verify.check_on_program prog lock_assertion ~input:(Qstate.Statevec.basis 3 3))

let test_verify_probe_accuracies_range () =
  let r = rng () in
  let p = identity_program 2 in
  let c = Characterize.run ~rng:r p ~count:16 in
  let approx = Approx.of_characterization c in
  let accs = Verify.probe_accuracies ~rng:r ~count:8 approx p ~tracepoint:1 in
  Array.iter (fun a -> assert (a >= -1e-9 && a <= 1. +. 1e-6)) accs

(* the single per-probe loop: fresh Haar input, run_traces, accuracy —
   bit-identical when replayed by hand on the same generator *)
let test_verify_probe_accuracies_loop () =
  let c =
    Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2 |> tracepoint 1 [ 0; 1; 2 ])
  in
  let program = Program.make c in
  let ch =
    Characterize.run ~rng:(Stats.Rng.make 5) ~kind:Clifford.Sampling.Haar
      program ~count:12
  in
  let approx = Approx.of_characterization ch in
  let accs =
    Verify.probe_accuracies ~rng:(Stats.Rng.make 6) ~count:5 approx program
      ~tracepoint:1
  in
  let rng = Stats.Rng.make 6 in
  let expected =
    Array.init 5 (fun _ ->
        let input = Clifford.Sampling.haar_state rng 3 in
        let truth = List.assoc 1 (Program.run_traces ~rng program ~input) in
        Approx.accuracy
          (Approx.state_at approx ~tracepoint:1 (dm_of_state input))
          truth)
  in
  Alcotest.(check (array (float 0.))) "probe accuracies" expected accs

(* ---------------- Prop_approx ---------------- *)

let test_prop_approx_exact_on_span () =
  let r = rng () in
  let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> rz 0.4 1 |> tracepoint 1 [ 0; 1 ]) in
  let p = Program.make circ in
  (* full-span Haar samples: predictions must be exact for any input *)
  let inputs = List.init 16 (fun _ -> Clifford.Sampling.haar_state r 2) in
  let c = Characterize.run ~rng:r ~inputs p ~count:0 in
  let zz = Qstate.Pauli.of_string "ZZ" and xi = Qstate.Pauli.of_string "XI" in
  let pa = Prop_approx.of_characterization ~observables:[ zz; xi ] ~tracepoint:1 c in
  for _ = 1 to 6 do
    let input = Clifford.Sampling.haar_state r 2 in
    let truth = List.assoc 1 (Program.run_traces ~rng:r p ~input) in
    let predicted = Prop_approx.predict pa (dm_of_state input) in
    check_float "ZZ" (Qstate.Pauli.expectation_dm zz truth) predicted.(0) ~eps:1e-6;
    check_float "XI" (Qstate.Pauli.expectation_dm xi truth) predicted.(1) ~eps:1e-6
  done

let test_prop_approx_settings () =
  let r = rng () in
  let p = identity_program 2 in
  let c = Characterize.run ~rng:r p ~count:4 in
  let obs = [ Qstate.Pauli.of_string "ZZ"; Qstate.Pauli.of_string "ZI"; Qstate.Pauli.of_string "XX" ] in
  let pa = Prop_approx.of_characterization ~observables:obs ~tracepoint:1 c in
  (* ZZ and ZI share a support pattern family but differ here; count distinct *)
  Alcotest.(check int) "settings" 3 (Prop_approx.measurement_settings pa);
  Alcotest.(check int) "obs count" 3 (List.length (Prop_approx.observables pa))

let test_prop_approx_clamped () =
  let r = rng () in
  let p = identity_program 1 in
  let c = Characterize.run ~rng:r p ~count:2 in
  let pa =
    Prop_approx.of_characterization
      ~observables:[ Qstate.Pauli.of_string "Z" ] ~tracepoint:1 c
  in
  for _ = 1 to 10 do
    let v = (Prop_approx.predict pa (dm_of_state (Clifford.Sampling.haar_state r 1))).(0) in
    assert (v >= -1. && v <= 1.)
  done

(* ---------------- counterexample minimization + properties ---------------- *)

let test_minimize_counterexample_lock () =
  let r = rng () in
  let prog, lock = lock_program ~unexpected_key:6 () in
  let c = Characterize.run ~rng:r prog ~count:16 in
  let approx = Approx.of_characterization c in
  match Verify.validate ~rng:r ~confirm:prog approx lock_assertion with
  | Verify.Violated { counterexample; _ } ->
      let minimized =
        Verify.minimize_counterexample prog lock_assertion ~counterexample
      in
      (* the minimized input must itself violate the assertion *)
      assert (not (Verify.check_on_program prog lock_assertion ~input:minimized));
      ignore lock
  | Verify.Verified _ -> Alcotest.fail "bug missed"

let prop_isomorphism_linearity =
  (* Theorem 1's heart: the approximation is linear — f(a rho1 + b rho2) =
     a f(rho1) + b f(rho2) for the least-squares decomposition *)
  QCheck.Test.make ~name:"approximation is linear" ~count:25
    QCheck.(triple (int_range 0 10_000) (float_range 0.1 0.9) (float_range 0.1 0.9))
    (fun (seed, a, b) ->
      let r = Stats.Rng.make seed in
      let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> t_gate 1 |> tracepoint 1 [ 0; 1 ]) in
      let p = Program.make circ in
      let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:6 in
      let approx = Approx.of_characterization c in
      let rho1 = dm_of_state (Clifford.Sampling.haar_state r 2) in
      let rho2 = dm_of_state (Clifford.Sampling.haar_state r 2) in
      let lhs =
        Approx.state_at ~physical:false approx ~tracepoint:1
          (Cmat.add (Cmat.rscale a rho1) (Cmat.rscale b rho2))
      in
      let rhs =
        Cmat.add
          (Cmat.rscale a (Approx.state_at ~physical:false approx ~tracepoint:1 rho1))
          (Cmat.rscale b (Approx.state_at ~physical:false approx ~tracepoint:1 rho2))
      in
      Cmat.frob_norm (Cmat.sub lhs rhs) < 1e-6)

let prop_case1_exactness =
  (* any convex mixture of sampled inputs is reproduced exactly *)
  QCheck.Test.make ~name:"case-1 inputs are exact" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Stats.Rng.make seed in
      let circ = Circuit.(empty 2 |> h 1 |> cx 1 0 |> s 0 |> tracepoint 1 [ 0; 1 ]) in
      let p = Program.make circ in
      let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:6 in
      let approx = Approx.of_characterization c in
      let sampled =
        Array.to_list
          (Array.map (fun s -> s.Characterize.input_state) c.Characterize.samples)
      in
      let rho_in = Clifford.Sampling.random_mixture r sampled in
      let predicted = Approx.state_at approx ~tracepoint:1 rho_in in
      let truth =
        let o = Sim.Dm_engine.run ~initial:(Qstate.Density.of_cmat 2 rho_in) circ in
        List.assoc 1 o.Sim.Dm_engine.traces
      in
      Approx.accuracy predicted truth > 1. -. 1e-6)

(* ---------------- validation gradients ---------------- *)

let validation_circuits = Testkit.Gen.pure ~min_qubits:1 ~max_qubits:3 ()

let prop_gradient_matches_numeric =
  QCheck.Test.make ~name:"exact gradient = central differences off kinks"
    ~count:8 validation_circuits Testkit.Oracle.gradient_matches_numeric

let prop_gradient_finite_at_degenerate =
  QCheck.Test.make ~name:"exact gradient finite at degenerate points" ~count:8
    validation_circuits Testkit.Oracle.gradient_finite_at_degenerate

let prop_problem_values_match_reference =
  QCheck.Test.make ~name:"objective values bit-identical to the reference pass"
    ~count:8 validation_circuits Testkit.Oracle.problem_values_match_reference

(* ---------------- distribution assertions ---------------- *)

let ghz3 = Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2)
let ghz3_dist () = Assertion.Dist.make [ (0, 0.5); (7, 0.5) ]

let test_dist_validation () =
  let d = ghz3_dist () in
  check_float ~eps:1e-12 "other mass" 0. (Assertion.Dist.other_mass d);
  check_float "default significance" 0.05 d.Assertion.Dist.significance;
  List.iter
    (fun (sig_, pairs) ->
      match Assertion.Dist.make ?significance:sig_ pairs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "Dist.make accepted an invalid spec")
    [
      (None, []);
      (None, [ (0, 0.5); (0, 0.5) ]) (* duplicate index *);
      (None, [ (-1, 0.5) ]);
      (None, [ (0, 1.5) ]);
      (None, [ (0, 0.7); (1, 0.7) ]) (* mass > 1 *);
      (Some 0., [ (0, 0.5) ]);
      (Some 1., [ (0, 0.5) ]);
    ]

let test_check_counts_fixed_holds () =
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let r =
    Verify.check_counts ~budget:(`Fixed 2048) ~rng:(rng ()) program
      (ghz3_dist ()) ~input
  in
  if not r.Verify.counts_hold then
    Alcotest.failf "GHZ counts rejected (p = %g)" r.Verify.test.Stats.Tests.pvalue;
  Alcotest.(check int) "spent the fixed budget" 2048 r.Verify.shots_used;
  Alcotest.(check bool) "no early stop on fixed" false r.Verify.early_stop

let test_check_counts_sequential_agrees () =
  (* same program, same expectation: the sequential budget must reach the
     same verdict while spending strictly fewer shots (GHZ accepts in the
     first few SPRT blocks) *)
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let budget =
    `Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 2048 }
  in
  let r = Verify.check_counts ~budget ~rng:(rng ()) program (ghz3_dist ()) ~input in
  Alcotest.(check bool) "holds" true r.Verify.counts_hold;
  Alcotest.(check bool) "stopped early" true r.Verify.early_stop;
  if r.Verify.shots_used >= 2048 then
    Alcotest.failf "sequential spent the whole cap (%d)" r.Verify.shots_used

let test_check_counts_rejects_wrong_dist () =
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let wrong = Assertion.Dist.make [ (0, 0.9); (7, 0.1) ] in
  List.iter
    (fun budget ->
      let r = Verify.check_counts ~budget ~rng:(rng ()) program wrong ~input in
      if r.Verify.counts_hold then
        Alcotest.fail "0.9/0.1 expectation must be rejected on GHZ")
    [
      `Fixed 2048;
      `Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 2048 };
    ]

let test_check_counts_impossible_outcome () =
  (* claiming all mass on |111> while the program emits |000> half the
     time: a zero-probability category is observed, so the sequential
     path must reject with certainty (p = 0) *)
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let point = Assertion.Dist.make [ (7, 1.0) ] in
  let r =
    Verify.check_counts
      ~budget:(`Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 4096 })
      ~rng:(rng ()) program point ~input
  in
  Alcotest.(check bool) "rejected" false r.Verify.counts_hold;
  check_float ~eps:0. "certain rejection" 0. r.Verify.test.Stats.Tests.pvalue

let test_probe_assertion_budgets () =
  (* identity program, trivially-true guarantee: fixed and sequential
     budgets agree, sequential accepting after ~14 Haar probes *)
  let c = Circuit.(empty 1 |> tracepoint 1 [ 0 ] |> tracepoint 2 [ 0 ]) in
  let program = Program.make c in
  let assertion =
    Assertion.make ~name:"id"
      ~assumes:[ Predicate.Is_pure 1 ]
      ~guarantees:[ Predicate.Purity_ge (2, 0.5) ]
      ()
  in
  let fixed = Verify.probe_assertion ~rng:(rng ()) ~budget:(`Fixed 32) program assertion in
  Alcotest.(check bool) "fixed holds" true fixed.Verify.probe_holds;
  Alcotest.(check int) "fixed trials" 32 fixed.Verify.trials;
  let seq =
    Verify.probe_assertion ~rng:(rng ())
      ~budget:(`Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 64 })
      program assertion
  in
  Alcotest.(check bool) "sequential holds" true seq.Verify.probe_holds;
  Alcotest.(check bool) "sequential stops early" true seq.Verify.probe_early_stop;
  if seq.Verify.trials >= fixed.Verify.trials then
    Alcotest.failf "sequential used %d trials >= fixed %d" seq.Verify.trials
      fixed.Verify.trials

let test_sequential_tomography_matches_fixed () =
  (* sequential tomography on a basis state: strictly fewer shots, same
     reconstruction to within the shot-noise of the cap *)
  let c = Circuit.(empty 2 |> x 0 |> tracepoint 1 [ 0; 1 ]) in
  let program = Program.make c in
  let budget =
    `Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 256 }
  in
  let run_mode budget =
    Characterize.run ~rng:(rng ())
      ~mode:(Characterize.Tomography { shots = 256; project = true })
      ?budget program ~count:2
  in
  let fixed = run_mode None and seq = run_mode (Some budget) in
  let cost c = c.Characterize.cost.Sim.Cost.shots in
  if cost seq >= cost fixed then
    Alcotest.failf "sequential tomography spent %d shots >= fixed %d" (cost seq)
      (cost fixed);
  Array.iter2
    (fun (a : Characterize.sample) (b : Characterize.sample) ->
      List.iter2
        (fun (ia, ma) (ib, mb) ->
          if ia <> ib then Alcotest.fail "tracepoint ids diverged";
          if Cmat.frob_norm (Cmat.sub ma mb) > 0.35 then
            Alcotest.fail "sequential reconstruction drifted from fixed")
        a.Characterize.traces b.Characterize.traces)
    fixed.Characterize.samples seq.Characterize.samples

let () =
  Alcotest.run "core"
    [
      ( "program",
        [
          Alcotest.test_case "embed" `Quick test_program_embed;
          Alcotest.test_case "traces include input" `Quick test_program_run_traces_includes_input;
        ] );
      ( "predicate",
        [
          Alcotest.test_case "is_pure" `Quick test_predicate_is_pure;
          Alcotest.test_case "equals" `Quick test_predicate_equals;
          Alcotest.test_case "expectation" `Quick test_predicate_expectation;
          Alcotest.test_case "diag range" `Quick test_predicate_diag_range;
          Alcotest.test_case "purity" `Quick test_predicate_purity_ge;
          Alcotest.test_case "tracepoints" `Quick test_predicate_tracepoints;
        ] );
      ( "assertion",
        [
          Alcotest.test_case "implication" `Quick test_assertion_implication;
          Alcotest.test_case "requires guarantee" `Quick test_assertion_requires_guarantee;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "shapes" `Quick test_characterize_shapes;
          Alcotest.test_case "custom inputs" `Quick test_characterize_custom_inputs;
          Alcotest.test_case "tomography cost" `Quick test_characterize_tomography_cost;
        ] );
      ( "approx",
        [
          Alcotest.test_case "exact on identity" `Quick test_approx_exact_on_identity;
          Alcotest.test_case "case1 exact" `Quick test_approx_case1_exact;
          Alcotest.test_case "improves with samples" `Slow test_approx_accuracy_improves_with_samples;
          Alcotest.test_case "theoretical accuracy" `Quick test_approx_theoretical_accuracy;
          Alcotest.test_case "decompose modes" `Quick test_approx_decompose_modes;
          Alcotest.test_case "chain" `Quick test_approx_chain;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "monotone in samples" `Quick test_confidence_increases_with_samples;
          Alcotest.test_case "bounds" `Quick test_confidence_bounds;
          Alcotest.test_case "required samples" `Quick test_confidence_required_samples;
          Alcotest.test_case "exhaustive baseline" `Quick test_exhaustive_confidence;
        ] );
      ( "prune",
        [
          Alcotest.test_case "adapt" `Quick test_prune_adapt;
          Alcotest.test_case "const" `Quick test_prune_const;
          Alcotest.test_case "prop" `Quick test_prune_prop_reduction;
        ] );
      ( "prop-approx",
        [
          Alcotest.test_case "exact on span" `Quick test_prop_approx_exact_on_span;
          Alcotest.test_case "settings" `Quick test_prop_approx_settings;
          Alcotest.test_case "clamped" `Quick test_prop_approx_clamped;
        ] );
      ( "verify",
        [
          Alcotest.test_case "correct lock" `Slow test_verify_correct_lock;
          Alcotest.test_case "buggy lock" `Slow test_verify_buggy_lock;
          Alcotest.test_case "teleport" `Slow test_verify_teleport;
          Alcotest.test_case "check on program" `Quick test_verify_check_on_program;
          Alcotest.test_case "probe accuracies" `Quick test_verify_probe_accuracies_range;
          Alcotest.test_case "probe_accuracies per-probe loop" `Quick
            test_verify_probe_accuracies_loop;
          Alcotest.test_case "minimize counterexample" `Slow test_minimize_counterexample_lock;
        ] );
      ( "dist-verdicts",
        [
          Alcotest.test_case "dist validation" `Quick test_dist_validation;
          Alcotest.test_case "check_counts fixed holds" `Quick test_check_counts_fixed_holds;
          Alcotest.test_case "sequential agrees, stops early" `Quick test_check_counts_sequential_agrees;
          Alcotest.test_case "wrong dist rejected" `Quick test_check_counts_rejects_wrong_dist;
          Alcotest.test_case "impossible outcome certain" `Quick test_check_counts_impossible_outcome;
          Alcotest.test_case "probe_assertion budgets" `Quick test_probe_assertion_budgets;
          Alcotest.test_case "sequential tomography" `Quick test_sequential_tomography_matches_fixed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_isomorphism_linearity;
            prop_case1_exactness;
            prop_gradient_matches_numeric;
            prop_gradient_finite_at_degenerate;
            prop_problem_values_match_reference;
          ] );
    ]
