(* Scalable-simulation subsystem tests (DESIGN.md §13): the sparse
   coordinate engine, the sum-over-stabilizers (stabilizer-rank) engine,
   the static support bound, [`Auto] routing past the dense wall, the
   MQ018 lint diagnostic, and 28+-qubit end-to-end characterization
   where the dense engine provably never runs. *)

open Testkit

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

let check_traces name a b =
  Alcotest.(check bool) name true (Oracle.traces_match a b)

let ghz ?(ts = []) n =
  let c = ref (Circuit.(empty n |> h 0)) in
  for q = 0 to n - 2 do
    c := Circuit.cx q (q + 1) !c
  done;
  List.iter (fun q -> c := Circuit.t_gate q !c) ts;
  !c

(* ------------------------- static support bound ----------------------- *)

let test_support_bound () =
  (* diagonal/permutation-only circuit: the basis support never grows *)
  let c = Circuit.(empty 3 |> x 0 |> mcz [ 0; 1; 2 ] |> t_gate 2) in
  Alcotest.(check int) "diagonal" 1 (Analysis.Classify.support_bound c);
  (* h branches its target; cx spreads through its target *)
  let c = Circuit.(empty 2 |> h 0 |> cx 0 1) in
  Alcotest.(check int) "h + cx" 4 (Analysis.Classify.support_bound c);
  let c = Circuit.(empty 5 |> h 0 |> h 1 |> h 2) in
  Alcotest.(check int) "three h" 8 (Analysis.Classify.support_bound c);
  Alcotest.(check int) "capped" 4
    (Analysis.Classify.support_bound ~cap:4 c);
  (* the bound never exceeds the full register dimension *)
  let c = Circuit.(empty 2 |> h 0 |> h 1 |> h 0 |> h 1) in
  Alcotest.(check int) "saturates at 2^n" 4 (Analysis.Classify.support_bound c)

(* ------------------------ tableau Pauli expectation ------------------- *)

let test_expectation_pauli () =
  let t0 = Stabilizer.Tableau.make 1 in
  Alcotest.(check int) "<0|Z|0>" 1
    (Stabilizer.Tableau.expectation_pauli t0 ~x:0 ~z:1);
  Alcotest.(check int) "<0|X|0>" 0
    (Stabilizer.Tableau.expectation_pauli t0 ~x:1 ~z:0);
  let bell = Stabilizer.Tableau.run Circuit.(empty 2 |> h 0 |> cx 0 1) in
  Alcotest.(check int) "<XX>" 1
    (Stabilizer.Tableau.expectation_pauli bell ~x:3 ~z:0);
  Alcotest.(check int) "<ZZ>" 1
    (Stabilizer.Tableau.expectation_pauli bell ~x:0 ~z:3);
  Alcotest.(check int) "<YY>" (-1)
    (Stabilizer.Tableau.expectation_pauli bell ~x:3 ~z:3);
  Alcotest.(check int) "<Z.>" 0
    (Stabilizer.Tableau.expectation_pauli bell ~x:0 ~z:1)

(* compare against the dense expectation on random Clifford circuits:
   apply the Hermitian Pauli word gate by gate ((1,1) = Y) and take the
   inner product *)
let dense_expectation st ~x ~z =
  let n = Qstate.Statevec.num_qubits st in
  let st' = Qstate.Statevec.copy st in
  for q = 0 to n - 1 do
    let gx = (x lsr q) land 1 = 1 and gz = (z lsr q) land 1 = 1 in
    let name =
      if gx && gz then Some "y" else if gx then Some "x"
      else if gz then Some "z" else None
    in
    match name with
    | Some name ->
        Sim.Engine.apply_gate (Circuit.Gate.make name [ q ]) st'
    | None -> ()
  done;
  Linalg.Cx.re
    (Linalg.Cvec.dot (Qstate.Statevec.to_cvec st) (Qstate.Statevec.to_cvec st'))

let prop_expectation_pauli =
  QCheck.Test.make ~name:"expectation_pauli ~ dense (clifford)" ~count
    (Gen.clifford ~max_qubits:3 ())
    (fun circ ->
      let c = Gen.build circ in
      let n = Circuit.num_qubits c in
      let tab = Stabilizer.Tableau.run c in
      let st = (Sim.Engine.run c).Sim.Engine.state in
      let ok = ref true in
      for x = 0 to (1 lsl n) - 1 do
        for z = 0 to (1 lsl n) - 1 do
          let e = Stabilizer.Tableau.expectation_pauli tab ~x ~z in
          if Float.abs (float_of_int e -. dense_expectation st ~x ~z) > 1e-9
          then ok := false
        done
      done;
      !ok)

(* --------------------------- sparse engine ---------------------------- *)

let test_sparse_bv () =
  let c = Benchmarks.Bv.circuit ~secret:0b10110 6 in
  let r = Sim.Sparse.run ~densify_limit:256 c in
  let dense = Sim.Engine.run c in
  let final =
    match r.Sim.Sparse.final with
    | Sim.Sparse.Sparse_state st -> Sim.Sparse.to_statevec st
    | Sim.Sparse.Dense_state st -> st
  in
  Alcotest.(check bool) "final state" true
    (Qstate.Statevec.fidelity_pure final dense.Sim.Engine.state >= 1. -. 1e-9);
  (* the H layer grows the live support well past the single basis state *)
  Alcotest.(check bool) "peak support grew" true (r.Sim.Sparse.peak_support >= 64);
  check_traces "traces" r.Sim.Sparse.traces dense.Sim.Engine.traces

let test_sparse_densify () =
  (* uniform superposition outgrows the limit and falls back densely *)
  let c = ref (Circuit.empty 8) in
  for q = 0 to 7 do
    c := Circuit.h q !c
  done;
  let c = Circuit.(!c |> t_gate 0 |> tracepoint 1 [ 0 ]) in
  let r = Sim.Sparse.run ~densify_limit:4 c in
  (match r.Sim.Sparse.final with
  | Sim.Sparse.Dense_state st ->
      Alcotest.(check bool) "dense final" true
        (Qstate.Statevec.fidelity_pure st (Sim.Engine.run c).Sim.Engine.state
        >= 1. -. 1e-9)
  | Sim.Sparse.Sparse_state _ -> Alcotest.fail "expected densify");
  check_traces "traces" r.Sim.Sparse.traces (Sim.Engine.run c).Sim.Engine.traces

let sparse_dispatchable c =
  List.for_all
    (function
      | Circuit.Instr.Gate g | Circuit.Instr.If_gate { gate = g; _ } -> (
          match (g.Circuit.Gate.name, g.Circuit.Gate.targets) with
          | "swap", [ _; _ ] -> g.Circuit.Gate.controls = []
          | _, [ _ ] -> true
          | _ -> false)
      | _ -> true)
    (Circuit.instrs c)

(* full programs (measure / reset / feedback): same generator stream as
   the dense engine, so clbits are bit-identical and states agree *)
let prop_sparse_program =
  QCheck.Test.make ~name:"Sparse.run ~ Engine.run (programs)" ~count
    (Gen.program ())
    (fun circ ->
      let c = Gen.build circ in
      (not (sparse_dispatchable c))
      ||
      let a = Sim.Sparse.run ~rng:(Stats.Rng.make 42) c in
      let b = Sim.Engine.run ~rng:(Stats.Rng.make 42) c in
      let final =
        match a.Sim.Sparse.final with
        | Sim.Sparse.Sparse_state st -> Sim.Sparse.to_statevec st
        | Sim.Sparse.Dense_state st -> st
      in
      a.Sim.Sparse.clbits = b.Sim.Engine.clbits
      && Oracle.traces_match a.Sim.Sparse.traces b.Sim.Engine.traces
      && Qstate.Statevec.fidelity_pure final b.Sim.Engine.state >= 1. -. 1e-9)

let prop_sparse_traces =
  QCheck.Test.make ~name:"sparse_traces ~ statevec (pure)" ~count
    (Gen.pure ()) Oracle.sparse_vs_statevec

(* ------------------------- stabilizer-rank engine --------------------- *)

let test_rank_small () =
  let c =
    Circuit.(
      empty 3 |> h 0 |> cx 0 1 |> t_gate 1 |> cx 1 2 |> tracepoint 1 [ 1; 2 ])
  in
  Alcotest.(check bool) "applicable" true (Sim.Engine.rank_applicable c);
  check_traces "traces" (Sim.Engine.rank_traces c)
    (Sim.Engine.run c).Sim.Engine.traces

let test_rank_branches () =
  let st = Sim.Rank.make 1 0 in
  Sim.Rank.apply_gate (Circuit.Gate.make "h" [ 0 ]) st;
  Alcotest.(check int) "clifford keeps one frame" 1 (Sim.Rank.branch_count st);
  Sim.Rank.apply_gate (Circuit.Gate.make "t" [ 0 ]) st;
  Alcotest.(check int) "t splits" 2 (Sim.Rank.branch_count st);
  (* tdg undoes it: the Z-frame coefficient cancels exactly and is pruned *)
  Sim.Rank.apply_gate (Circuit.Gate.make "tdg" [ 0 ]) st;
  Alcotest.(check int) "tdg merges back" 1 (Sim.Rank.branch_count st)

let prop_rank_traces =
  QCheck.Test.make ~name:"rank_traces ~ statevec (near-clifford)" ~count
    (Gen.near_clifford ()) Oracle.rank_vs_statevec

(* ------------------------------ routing ------------------------------- *)

let test_auto_route () =
  let clifford = Circuit.(empty 2 |> h 0 |> cx 0 1 |> tracepoint 1 [ 0 ]) in
  Alcotest.(check bool) "clifford -> stabilizer" true
    (Sim.Engine.auto_route clifford = Some `Stabilizer);
  let small = Circuit.(empty 2 |> h 0 |> t_gate 0 |> tracepoint 1 [ 0 ]) in
  Alcotest.(check bool) "below the wall -> dense" true
    (Sim.Engine.auto_route small = None);
  (* forcing the wall to zero exposes the static preferences *)
  let diagonal =
    Circuit.(
      empty 6 |> x 0 |> t_gate 0
      |> mcz [ 0; 1; 2; 3; 4; 5 ]
      |> tracepoint 1 [ 0 ])
  in
  Alcotest.(check bool) "low support -> sparse" true
    (Sim.Engine.auto_route ~wall:0. diagonal = Some `Sparse);
  Alcotest.(check bool) "near-clifford -> rank" true
    (Sim.Engine.auto_route ~wall:0.
       Circuit.(ghz ~ts:[ 17 ] 18 |> tracepoint 1 [ 17 ])
    = Some `Rank)

let test_forced_engines_reject () =
  (match
     Sim.Engine.tracepoint_states ~engine:`Rank
       Circuit.(empty 1 |> u3 0.3 0.2 0.1 0 |> tracepoint 1 [ 0 ])
   with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* measurement makes a single pass inexact: the sparse route refuses *)
  match
    Sim.Engine.tracepoint_states ~engine:`Sparse
      Circuit.(empty ~clbits:1 2 |> h 0 |> measure 0 0 |> tracepoint 1 [ 0 ])
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------ end-to-end past the dense wall -------------------- *)

(* run [f] with observability on and fresh metrics, restoring the
   caller's setting; returns [f ()] paired with a counter reader *)
let with_metrics f =
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) f

let routed_count engine =
  Option.value ~default:0
    (Obs.Metrics.counter_value
       ~labels:[ ("engine", engine) ]
       "sim_engine_routed_total")

let basis_index st =
  let d = Qstate.Statevec.dim st in
  let best = ref 0 in
  for k = 0 to d - 1 do
    if
      Linalg.Cx.norm2 (Qstate.Statevec.amplitude st k)
      > Linalg.Cx.norm2 (Qstate.Statevec.amplitude st !best)
    then best := k
  done;
  !best

(* 28-qubit Bernstein-Vazirani through [Characterize.run]:
   BV is all-Clifford, so the router sends every sample to the
   (lightcone-restricted) stabilizer tableau — the dense engine cannot
   even allocate 2^28 amplitudes — and the traced qubits must read
   [input xor secret] exactly *)
let test_bv28_characterize () =
  let secret = 0b1 lor (0b1011 lsl 10) in
  let c = Benchmarks.Bv.circuit ~trace_qubits:[ 0; 1 ] ~secret 28 in
  Alcotest.(check bool) "routes stabilizer" true
    (Sim.Engine.auto_route c = Some `Stabilizer);
  with_metrics @@ fun () ->
  let rng = Stats.Rng.make 11 in
  let program = Morphcore.Program.make ~input_qubits:[ 0; 1 ] c in
  let ch =
    Morphcore.Characterize.run ~rng ~kind:Clifford.Sampling.Basis
      program ~count:3
  in
  Alcotest.(check int) "stabilizer routed per sample" 3
    (routed_count "stabilizer");
  Alcotest.(check int) "dense never invoked" 0 (routed_count "statevec");
  Array.iter
    (fun (s : Morphcore.Characterize.sample) ->
      let b = basis_index s.Morphcore.Characterize.input_state in
      let expected = b lxor (secret land 3) in
      let m = List.assoc 1 s.Morphcore.Characterize.traces in
      let diag = Linalg.Cmat.get m expected expected in
      Alcotest.(check bool) "trace reads input xor secret" true
        (Float.abs (Linalg.Cx.re diag -. 1.) <= 1e-9))
    ch.Morphcore.Characterize.samples;
  (* and the verification layer consumes the routed traces unchanged *)
  let approx = Morphcore.Approx.of_characterization ch in
  let assertion =
    Morphcore.Assertion.make ~name:"bv28" ~assumes:[]
      ~guarantees:[ Morphcore.Predicate.Purity_ge (1, 0.0) ] ()
  in
  let options =
    { Morphcore.Verify.default_options with budget = 200; restarts = 1 }
  in
  (match Morphcore.Verify.validate ~options ~rng approx assertion with
  | Morphcore.Verify.Verified _ -> ()
  | Morphcore.Verify.Violated _ -> Alcotest.fail "bv28 assertion violated")

(* 32-qubit quantum lock: the mcz acceptance block is non-Clifford, so
   the stabilizer route refuses — but it is diagonal, so the static
   support bound is 2 and the sparse route carries every sample. The
   probe must read 1 exactly on the secret key. *)
let test_lock32_characterize () =
  let key = 0b10 in
  let t = Benchmarks.Quantum_lock.make ~key_tracepoint:false ~key 31 in
  let c = t.Benchmarks.Quantum_lock.circuit in
  Alcotest.(check int) "32 qubits" 32 (Circuit.num_qubits c);
  Alcotest.(check bool) "routes sparse" true
    (Sim.Engine.auto_route c = Some `Sparse);
  with_metrics @@ fun () ->
  let rng = Stats.Rng.make 13 in
  (* sample basis inputs on the two low key qubits; the key fits there *)
  let program = Morphcore.Program.make ~input_qubits:[ 1; 2 ] c in
  let ch =
    Morphcore.Characterize.run ~rng ~kind:Clifford.Sampling.Basis
      program ~count:3
  in
  Alcotest.(check int) "sparse routed per sample" 3 (routed_count "sparse");
  Alcotest.(check int) "dense never invoked" 0 (routed_count "statevec");
  Array.iter
    (fun (s : Morphcore.Characterize.sample) ->
      let b = basis_index s.Morphcore.Characterize.input_state in
      let expected = if b = key then 1 else 0 in
      let m = List.assoc 2 s.Morphcore.Characterize.traces in
      let diag = Linalg.Cmat.get m expected expected in
      Alcotest.(check bool) "probe reads key match" true
        (Float.abs (Linalg.Cx.re diag -. 1.) <= 1e-9))
    ch.Morphcore.Characterize.samples;
  let approx = Morphcore.Approx.of_characterization ch in
  let assertion =
    Morphcore.Assertion.make ~name:"lock32" ~assumes:[]
      ~guarantees:[ Morphcore.Predicate.Purity_ge (2, 0.0) ] ()
  in
  let options =
    { Morphcore.Verify.default_options with budget = 200; restarts = 1 }
  in
  match Morphcore.Verify.validate ~options ~rng approx assertion with
  | Morphcore.Verify.Verified _ -> ()
  | Morphcore.Verify.Violated _ -> Alcotest.fail "lock32 assertion violated"

(* 24-qubit GHZ with six T gates: the support bound blows up (every cx
   spreads), so the router must fall through to the stabilizer-rank
   engine; the traced pair of a (phased) GHZ state is the exact
   half-half classical mixture *)
let test_rank24_characterize () =
  let c =
    Circuit.(ghz ~ts:[ 3; 7; 11; 15; 19; 23 ] 24 |> tracepoint 1 [ 22; 23 ])
  in
  Alcotest.(check bool) "routes rank" true
    (Sim.Engine.auto_route c = Some `Rank);
  with_metrics @@ fun () ->
  let rng = Stats.Rng.make 12 in
  let program = Morphcore.Program.make ~input_qubits:[ 0 ] c in
  let ch =
    Morphcore.Characterize.run ~rng ~kind:Clifford.Sampling.Basis
      program ~count:2
  in
  Alcotest.(check int) "rank routed per sample" 2 (routed_count "rank");
  Alcotest.(check int) "dense never invoked" 0 (routed_count "statevec");
  Array.iter
    (fun (s : Morphcore.Characterize.sample) ->
      let m = List.assoc 1 s.Morphcore.Characterize.traces in
      let expected = Linalg.Cmat.create 4 4 in
      Linalg.Cmat.set expected 0 0 (Linalg.Cx.make 0.5 0.);
      Linalg.Cmat.set expected 3 3 (Linalg.Cx.make 0.5 0.);
      Alcotest.(check bool) "half-half GHZ mixture" true
        (Linalg.Cmat.frob_norm (Linalg.Cmat.sub m expected) <= 1e-9))
    ch.Morphcore.Characterize.samples;
  let approx = Morphcore.Approx.of_characterization ch in
  let assertion =
    Morphcore.Assertion.make ~name:"ghz24" ~assumes:[]
      ~guarantees:[ Morphcore.Predicate.Purity_ge (1, 0.4) ] ()
  in
  let options =
    { Morphcore.Verify.default_options with budget = 200; restarts = 1 }
  in
  match Morphcore.Verify.validate ~options ~rng approx assertion with
  | Morphcore.Verify.Verified _ -> ()
  | Morphcore.Verify.Violated _ -> Alcotest.fail "ghz24 assertion violated"

let prop_scale_route =
  QCheck.Test.make
    ~name:"characterize scale route ~ sequential (near-clifford)"
    ~count:(max 10 (count / 4))
    (Gen.near_clifford ())
    (fun c -> Oracle.characterize_scale_route c)

(* ------------------------------- MQ018 -------------------------------- *)

(* same wiring as the CLI: the router lives above the analysis layer *)
let classify c =
  match Sim.Engine.sim_class c with
  | Sim.Engine.Class_dense -> "dense"
  | Sim.Engine.Class_sparse -> "sparse"
  | Sim.Engine.Class_stabilizer -> "stabilizer"
  | Sim.Engine.Class_rank k -> Printf.sprintf "stabilizer-rank 2^%d" k

(* a program no scalable engine accepts: a controlled non-Clifford
   rotation (not rank-decomposable) under a register-wide tracepoint *)
let dense_only n =
  let c = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    c := Circuit.h q !c
  done;
  Circuit.(
    !c |> cp 0.3 0 1 |> tracepoint 1 (List.init n (fun q -> q)))

let test_mq018 () =
  let info_of c =
    match Analysis.Lint.check_sim_class ~classify c with
    | [ d ] when d.Analysis.Lint.severity = Analysis.Lint.Info ->
        d.Analysis.Lint.message
    | ds -> Alcotest.failf "expected one Info, got %d" (List.length ds)
  in
  Alcotest.(check string) "stabilizer class"
    "estimated simulation class: stabilizer"
    (info_of Circuit.(ghz 4 |> tracepoint 1 [ 3 ]));
  Alcotest.(check string) "sparse class"
    "estimated simulation class: sparse"
    (info_of Circuit.(empty 3 |> x 0 |> t_gate 0 |> tracepoint 1 [ 0 ]));
  (* a wide GHZ chain defeats the support bound (every cx spreads), so
     the near-Clifford fallback reports its non-Clifford count *)
  Alcotest.(check string) "rank class"
    "estimated simulation class: stabilizer-rank 2^1"
    (info_of Circuit.(ghz ~ts:[ 17 ] 18 |> tracepoint 1 [ 17 ]));
  (* measurement makes every scalable route refuse: Info only, no
     warning on a narrow register *)
  Alcotest.(check string) "dense class (small)"
    "estimated simulation class: dense"
    (info_of
       Circuit.(
         empty ~clbits:1 2 |> h 0 |> measure 0 0 |> tracepoint 1 [ 0 ]))

let test_mq018_dense_warning () =
  match Analysis.Lint.check_sim_class ~classify (dense_only 24) with
  | [ info; warn ] ->
      Alcotest.(check bool) "info first" true
        (info.Analysis.Lint.severity = Analysis.Lint.Info);
      Alcotest.(check bool) "warning severity" true
        (warn.Analysis.Lint.severity = Analysis.Lint.Warning);
      Alcotest.(check string) "golden rendering"
        "prog.qasm: warning[MQ018]: program is dense-only at 24 qubits \
         (threshold 20): every simulation pass touches 2^24 amplitudes and \
         no sparse or stabilizer route applies (tune with \
         MORPHQPV_LINT_DENSE_QUBITS)"
        (Format.asprintf "%a" (Analysis.Lint.pp ~file:"prog.qasm") warn);
      (* raising the threshold silences the warning *)
      Alcotest.(check int) "threshold override" 1
        (List.length
           (Analysis.Lint.check_sim_class ~classify ~threshold:30
              (dense_only 24)))
  | ds -> Alcotest.failf "expected Info + Warning, got %d" (List.length ds)

let () =
  Alcotest.run "scale"
    [
      ( "static",
        [
          Alcotest.test_case "support bound" `Quick test_support_bound;
          Alcotest.test_case "expectation_pauli" `Quick test_expectation_pauli;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "bv end state" `Quick test_sparse_bv;
          Alcotest.test_case "densify hatch" `Quick test_sparse_densify;
        ] );
      ( "rank",
        [
          Alcotest.test_case "near-clifford traces" `Quick test_rank_small;
          Alcotest.test_case "branch growth and merge" `Quick
            test_rank_branches;
        ] );
      ( "routing",
        [
          Alcotest.test_case "auto_route decisions" `Quick test_auto_route;
          Alcotest.test_case "forced engines reject" `Quick
            test_forced_engines_reject;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "bv 28q stabilizer characterize" `Quick
            test_bv28_characterize;
          Alcotest.test_case "lock 32q sparse characterize" `Quick
            test_lock32_characterize;
          Alcotest.test_case "ghz+t 24q rank characterize" `Quick
            test_rank24_characterize;
        ] );
      ( "lint",
        [
          Alcotest.test_case "MQ018 classes" `Quick test_mq018;
          Alcotest.test_case "MQ018 dense warning" `Quick
            test_mq018_dense_warning;
        ] );
      ( "properties",
        List.map qtest
          [
            prop_expectation_pauli;
            prop_sparse_program;
            prop_sparse_traces;
            prop_rank_traces;
            prop_scale_route;
          ] );
    ]
