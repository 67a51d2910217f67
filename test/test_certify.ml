(* Translation validation: every certificate-emitting pass variant must
   produce a certificate the independent checker accepts, and every
   deliberately broken pass (Testkit.Mutate) must be rejected with a
   structured diagnostic. *)

open Transpile

let examples_dir =
  List.find Sys.file_exists [ "../examples/qasm"; "examples/qasm" ]

let check_ok msg cert before after =
  match Certify.check cert before after with
  | Ok s -> s
  | Error fs ->
      Alcotest.failf "%s: checker rejected a genuine certificate:@.%s" msg
        (String.concat "\n" (List.map Certify.failure_message fs))

let kinds fs = List.sort_uniq compare (List.map (fun f -> f.Certify.kind) fs)

(* ---------------- per-pass certificates on pinned circuits ------------ *)

let test_cancel_cert () =
  let c = Circuit.(empty 2 |> h 0 |> x 1 |> h 0 |> cx 0 1) in
  let c', st = Passes.cancel_inverses_cert c in
  Alcotest.(check int) "hh gone" 2 (Circuit.gate_count c');
  let s = check_ok "cancel" [ st ] c c' in
  Alcotest.(check int) "one deletion group" 1 s.Certify.local_equiv;
  Alcotest.(check int) "x and cx mapped" 2 s.Certify.permutation

let test_merge_cert () =
  let c = Circuit.(empty 1 |> rz 0.3 0 |> rz 0.4 0) in
  let c', st = Passes.merge_rotations_cert c in
  Alcotest.(check int) "merged" 1 (Circuit.gate_count c');
  let s = check_ok "merge" [ st ] c c' in
  Alcotest.(check int) "one group" 1 s.Certify.local_equiv

let test_merge_identity_cert () =
  (* rz(x) rz(4pi - x): merged away entirely — a deletion group *)
  let c = Circuit.(empty 1 |> rz 1.0 0 |> rz ((4. *. Float.pi) -. 1.0) 0) in
  let c', st = Passes.merge_rotations_cert c in
  Alcotest.(check int) "vanished" 0 (Circuit.gate_count c');
  ignore (check_ok "merge to identity" [ st ] c c')

let test_drop_cert () =
  let c = Circuit.(empty 2 |> rz 0. 0 |> crz 0. 0 1 |> h 0) in
  let c', st = Passes.drop_identities_cert c in
  Alcotest.(check int) "only h" 1 (Circuit.gate_count c');
  let s = check_ok "drop" [ st ] c c' in
  (* crz(0) is recorded under its base name "rz": still the identity *)
  Alcotest.(check int) "two identity elims" 2 s.Certify.identity_elim

let test_fuse_cert () =
  let c = Circuit.(empty 2 |> h 0 |> t_gate 0 |> s 0 |> cx 0 1) in
  let c', st = Passes.fuse_1q_cert c in
  Alcotest.(check int) "fused + cx" 2 (Circuit.gate_count c');
  let s = check_ok "fuse" [ st ] c c' in
  Alcotest.(check int) "one fusion group" 1 s.Certify.local_equiv

let test_prune_cert () =
  (* h 2 influences nothing observed: pruned with an Outside_cone witness *)
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> h 2 |> tracepoint 1 [ 0; 1 ]) in
  let c', st = Passes.prune_lightcone_cert c in
  let s = check_ok "prune" [ st ] c c' in
  Alcotest.(check int) "one pruned" 1 s.Certify.outside_cone

let test_optimize_cert_chain () =
  (* h x x h cascades across fixpoint iterations: a multi-step chain *)
  let c = Circuit.(empty 1 |> h 0 |> x 0 |> x 0 |> h 0) in
  let c', cert = Passes.optimize_cert c in
  Alcotest.(check int) "annihilated" 0 (Circuit.gate_count c');
  let s = check_ok "optimize chain" cert c c' in
  Alcotest.(check bool) "several steps" true (s.Certify.chain_steps >= 2);
  Alcotest.(check bool)
    "plain optimize is fst of the certified run" true
    (Passes.optimize c = c')

let test_segments_cert () =
  (* two fused blocks split by a barrier, a measurement fence after *)
  let c =
    Circuit.(
      empty ~clbits:1 2 |> h 0 |> t_gate 0 |> h 0
      |> barrier [ 0; 1 ]
      |> h 1 |> s 1 |> h 1 |> measure 0 0)
  in
  let plan, st = Segments.compile_cert c in
  (match Certify.check_plan [ st ] c plan with
  | Ok s ->
      Alcotest.(check bool) "fused something" true (s.Certify.local_equiv >= 1);
      Alcotest.(check int) "barrier accounted" 1 s.Certify.barrier_elim
  | Error fs ->
      Alcotest.failf "segments: rejected:@.%s"
        (String.concat "\n" (List.map Certify.failure_message fs)));
  Alcotest.(check bool)
    "plain compile is fst of the certified compile" true
    (Segments.compile c = plan)

let test_segments_cert_clifford_direct () =
  let c = Circuit.(empty 2 |> h 0 |> cx 0 1 |> s 1 |> h 0 |> h 0) in
  let plan, st = Segments.compile_cert ~clifford_direct:true c in
  match Certify.check_plan [ st ] c plan with
  | Ok _ -> ()
  | Error fs ->
      Alcotest.failf "clifford-direct: rejected:@.%s"
        (String.concat "\n" (List.map Certify.failure_message fs))

(* ---------------- end-to-end over the example corpus ------------------ *)

let test_examples_certified () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".qasm")
  |> List.iter (fun f ->
         let full = Qasm.parse_file_full (Filename.concat examples_dir f) in
         let report =
           Morphcore.Verify.certify_transpile ~locs:full.Qasm.locs
             full.Qasm.circuit
         in
         if not report.Morphcore.Verify.certified then
           Alcotest.failf "%s: certification failed:@.%s" f
             (String.concat "\n"
                (List.map Certify.failure_message
                   report.Morphcore.Verify.cert_failures));
         if
           Certify.total_obligations report.Morphcore.Verify.cert_summary = 0
         then Alcotest.failf "%s: pipeline discharged zero obligations" f)

(* ---------------- mutants: the checker's soundness -------------------- *)

let mutant_case name build expected_kind =
  let c = build () in
  match name c with
  | exception e -> Alcotest.failf "mutant raised %s" (Printexc.to_string e)
  | None -> Alcotest.fail "mutant not applicable to its pinned circuit"
  | Some m ->
      let fs = Testkit.Mutate.failures m in
      if fs = [] then
        Alcotest.failf "checker ACCEPTED mutant %s" m.Testkit.Mutate.mutant_name;
      if not (List.mem expected_kind (kinds fs)) then
        Alcotest.failf "mutant %s rejected for %s, expected kind %s"
          m.Testkit.Mutate.mutant_name
          (String.concat "," (kinds fs))
          expected_kind

let test_mutant_wrong_replacement () =
  mutant_case Testkit.Mutate.wrong_replacement
    (fun () -> Circuit.(empty 1 |> h 0 |> t_gate 0 |> s 0))
    "local_equiv"

let test_mutant_over_pruned () =
  mutant_case Testkit.Mutate.over_pruned
    (fun () -> Circuit.(empty 2 |> h 0 |> cx 0 1 |> tracepoint 1 [ 0; 1 ]))
    "outside_cone"

let test_mutant_reordered_measurement () =
  mutant_case Testkit.Mutate.reordered_measurement
    (fun () -> Circuit.(empty ~clbits:1 1 |> h 0 |> measure 0 0))
    "permutation"

let test_mutant_wrong_block () =
  mutant_case Testkit.Mutate.wrong_block
    (fun () -> Circuit.(empty 2 |> h 0 |> t_gate 0 |> cx 0 1 |> s 1))
    "local_equiv"

let test_forged_identity_rejected () =
  (* drop_identities would never drop rz(0.4); a forged Identity_elim
     obligation for it must not slip through *)
  let c = Circuit.(empty 1 |> rz 0.4 0 |> h 0) in
  let out = Circuit.(empty 1 |> h 0) in
  let st =
    {
      Certify.pass = "forged_drop";
      obligations = [ Certify.Identity_elim { index = 0; eps = 1e-12 } ];
      mapped = [ (1, 0) ];
      output = Certify.Circ out;
    }
  in
  match Certify.check [ st ] c out with
  | Ok _ -> Alcotest.fail "checker accepted a forged identity elimination"
  | Error fs ->
      Alcotest.(check bool)
        "identity_elim diagnostic" true
        (List.mem "identity_elim" (kinds fs))

let test_unaccounted_rejected () =
  (* an output instruction the certificate never explains *)
  let c = Circuit.(empty 1 |> h 0) in
  let out = Circuit.(empty 1 |> h 0 |> s 0) in
  let st =
    {
      Certify.pass = "forged_insert";
      obligations = [];
      mapped = [ (0, 0) ];
      output = Certify.Circ out;
    }
  in
  match Certify.check [ st ] c out with
  | Ok _ -> Alcotest.fail "checker accepted an unexplained insertion"
  | Error fs ->
      Alcotest.(check bool) "coverage" true (List.mem "coverage" (kinds fs))

(* ---------------- segment plan shapes --------------------------------- *)

let certified_plan ?cutoff ?block_cutoff c =
  let plan, st = Segments.compile_cert ?cutoff ?block_cutoff c in
  (match Certify.check_plan [ st ] c plan with
  | Ok _ -> ()
  | Error fs ->
      Alcotest.failf "segments: rejected:@.%s"
        (String.concat "\n" (List.map Certify.failure_message fs)));
  plan

let operators plan =
  List.length
    (List.filter
       (function Certify.Fence _ -> false | _ -> true)
       plan.Certify.items)

(* fig5 workload: 3-qubit payload teleportation = 12 unitary gates between
   feedback fences, fused into 3 per-hop blocks *)
let test_teleport_fusion_counts () =
  let c = Benchmarks.Teleport.multi 3 in
  Alcotest.(check int) "source gates" 12
    (List.length
       (List.filter
          (function Circuit.Instr.Gate _ -> true | _ -> false)
          (Circuit.instrs c)));
  Alcotest.(check int) "fused operators" 3 (operators (certified_plan c))

let ghz n =
  List.fold_left
    (fun c q -> Circuit.cx q (q + 1) c)
    (Circuit.(empty n |> h 0))
    (List.init (n - 1) (fun q -> q))

let test_cutoff_extremes () =
  let c = Circuit.tracepoint 1 [ 0; 1; 2 ] (ghz 3) in
  List.iter
    (fun (cutoff, block_cutoff) ->
      ignore (certified_plan ~cutoff ~block_cutoff c))
    [ (1, 1); (2, 2); (6, 3); (26, 26) ];
  (* cutoff 1 + block_cutoff 1 cannot fuse across the cx gates: the h
     becomes a 1q block and each cx a Direct item *)
  Alcotest.(check int) "no fusion at cutoff 1" 3
    (operators (certified_plan ~cutoff:1 ~block_cutoff:1 c))

let test_direct_wide_gate () =
  (* a 4-control Toffoli exceeds block_cutoff: kept as a Direct item *)
  let c =
    Circuit.(
      empty 5 |> h 0 |> h 1 |> h 2 |> h 3 |> mcx [ 0; 1; 2; 3 ] 4
      |> tracepoint 1 [ 4 ])
  in
  let plan = certified_plan ~cutoff:3 ~block_cutoff:3 c in
  Alcotest.(check bool) "wide gate stays direct" true
    (List.exists
       (function Certify.Direct _ -> true | _ -> false)
       plan.Certify.items)

let test_trace_only_circuit () =
  let c = Circuit.(empty 2 |> tracepoint 1 [ 0; 1 ]) in
  let plan = certified_plan c in
  Alcotest.(check int) "no operators" 0 (operators plan);
  Alcotest.(check int) "one fence" 1 (List.length plan.Certify.items)

(* ---------------- properties ------------------------------------------ *)

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> 30)
  | None -> 30

let prop_certified_sound_pure =
  QCheck.Test.make ~name:"certified passes sound (pure)" ~count:qcheck_count
    (Testkit.Gen.pure ~max_qubits:3 ())
    Testkit.Oracle.certified_pass_sound

let prop_certified_sound_program =
  QCheck.Test.make ~name:"certified passes sound (programs)"
    ~count:qcheck_count
    (Testkit.Gen.program ~max_qubits:3 ())
    Testkit.Oracle.certified_pass_sound

let prop_mutants_rejected =
  QCheck.Test.make ~name:"mutants rejected" ~count:qcheck_count
    (Testkit.Gen.program ~max_qubits:3 ())
    Testkit.Oracle.certified_mutants_rejected

let () =
  Alcotest.run "certify"
    [
      ( "passes",
        [
          Alcotest.test_case "cancel_inverses" `Quick test_cancel_cert;
          Alcotest.test_case "merge_rotations" `Quick test_merge_cert;
          Alcotest.test_case "merge to identity" `Quick test_merge_identity_cert;
          Alcotest.test_case "drop_identities" `Quick test_drop_cert;
          Alcotest.test_case "fuse_1q" `Quick test_fuse_cert;
          Alcotest.test_case "prune_lightcone" `Quick test_prune_cert;
          Alcotest.test_case "optimize chain" `Quick test_optimize_cert_chain;
          Alcotest.test_case "segments" `Quick test_segments_cert;
          Alcotest.test_case "segments clifford-direct" `Quick
            test_segments_cert_clifford_direct;
          Alcotest.test_case "example corpus" `Quick test_examples_certified;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "wrong replacement" `Quick
            test_mutant_wrong_replacement;
          Alcotest.test_case "over-pruned cone" `Quick test_mutant_over_pruned;
          Alcotest.test_case "reordered measurement" `Quick
            test_mutant_reordered_measurement;
          Alcotest.test_case "wrong block" `Quick test_mutant_wrong_block;
          Alcotest.test_case "forged identity" `Quick
            test_forged_identity_rejected;
          Alcotest.test_case "unexplained insertion" `Quick
            test_unaccounted_rejected;
        ] );
      ( "units",
        [
          Alcotest.test_case "fig5 teleport fusion counts" `Quick
            test_teleport_fusion_counts;
          Alcotest.test_case "cutoff extremes certify" `Quick
            test_cutoff_extremes;
          Alcotest.test_case "wide gate compiled as direct" `Quick
            test_direct_wide_gate;
          Alcotest.test_case "trace-only circuit" `Quick test_trace_only_circuit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_certified_sound_pure;
            prop_certified_sound_program;
            prop_mutants_rejected;
          ] );
    ]
