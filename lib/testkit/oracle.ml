let eps = 1e-9

let fidelity_pure_dm psi rho =
  let v = Qstate.Statevec.to_cvec psi in
  let rv = Linalg.Cmat.apply (Qstate.Density.mat rho) v in
  Linalg.Cx.re (Linalg.Cvec.dot v rv)

let traces_match ?(eps = eps) a b =
  List.length a = List.length b
  && List.for_all2
       (fun (id_a, m_a) (id_b, m_b) ->
         id_a = id_b && Linalg.Cmat.frob_norm (Linalg.Cmat.sub m_a m_b) <= eps)
       a b

let statevec_vs_dm circ =
  let c = Gen.build circ in
  let sv = Sim.Engine.run c in
  let dm = Sim.Dm_engine.run c in
  fidelity_pure_dm sv.Sim.Engine.state (Sim.Dm_engine.final_density dm)
  >= 1.0 -. eps
  && traces_match sv.Sim.Engine.traces dm.Sim.Dm_engine.traces

let statevec_vs_tableau circ =
  let c = Gen.build circ in
  let tab = Stabilizer.Tableau.run c in
  let sv = (Sim.Engine.run c).Sim.Engine.state in
  let rho_tab = Stabilizer.Tableau.density tab in
  let rho_sv = Qstate.Statevec.density sv in
  Linalg.Cmat.frob_norm (Linalg.Cmat.sub rho_tab rho_sv) <= eps
  && List.for_all
       (fun q ->
         let ez_tab = float_of_int (Stabilizer.Tableau.expectation_z tab q) in
         let ez_sv = 1.0 -. (2.0 *. Qstate.Statevec.prob1 sv q) in
         Float.abs (ez_tab -. ez_sv) <= eps)
       (List.init (Circuit.num_qubits c) Fun.id)

let statevec_vs_sparse ?(input = 0) circ =
  let c = Gen.build circ in
  let input = input mod (1 lsl Circuit.num_qubits c) in
  let sparse =
    match (Sim.Sparse.run ~input c).Sim.Sparse.final with
    | Sim.Sparse.Sparse_state t -> Sim.Sparse.to_statevec t
    | Sim.Sparse.Dense_state st -> st
  in
  let initial = Qstate.Statevec.basis (Circuit.num_qubits c) input in
  let dense = (Sim.Engine.run ~initial c).Sim.Engine.state in
  Qstate.Statevec.fidelity_pure sparse dense >= 1.0 -. eps

let gates_agree (a : Circuit.Gate.t) (b : Circuit.Gate.t) =
  a.Circuit.Gate.name = b.Circuit.Gate.name
  && a.Circuit.Gate.controls = b.Circuit.Gate.controls
  && a.Circuit.Gate.targets = b.Circuit.Gate.targets
  && List.length a.Circuit.Gate.params = List.length b.Circuit.Gate.params
  && List.for_all2
       (fun x y -> Float.abs (x -. y) <= eps)
       a.Circuit.Gate.params b.Circuit.Gate.params

let instrs_agree (a : Circuit.Instr.t) (b : Circuit.Instr.t) =
  match (a, b) with
  | Gate g, Gate g' -> gates_agree g g'
  | Tracepoint t, Tracepoint t' -> t.id = t'.id && t.qubits = t'.qubits
  | Measure m, Measure m' -> m.qubit = m'.qubit && m.clbit = m'.clbit
  | Reset q, Reset q' -> q = q'
  | If_gate i, If_gate i' ->
      i.clbits = i'.clbits && i.value = i'.value && gates_agree i.gate i'.gate
  | Barrier qs, Barrier qs' -> qs = qs'
  | _ -> false

let qasm_roundtrip circ =
  let c = Gen.build circ in
  let c' = Qasm.parse (Qasm.to_string c) in
  Circuit.num_qubits c = Circuit.num_qubits c'
  && Circuit.num_clbits c = Circuit.num_clbits c'
  &&
  let is_a = Circuit.instrs c and is_b = Circuit.instrs c' in
  List.length is_a = List.length is_b && List.for_all2 instrs_agree is_a is_b

let transpile_preserves pass circ =
  let c = Gen.build circ in
  Transpile.Equiv.unitaries_equal c (pass c)

let all_passes =
  [
    ("cancel_inverses", Transpile.Passes.cancel_inverses);
    ("merge_rotations", Transpile.Passes.merge_rotations);
    ("drop_identities", fun c -> Transpile.Passes.drop_identities c);
    ("fuse_1q", Transpile.Passes.fuse_1q);
    ("optimize", fun c -> Transpile.Passes.optimize c);
  ]

(* ---- translation validation (Transpile.Certify) ---- *)

let cert_ok = function Ok _ -> true | Error _ -> false

let certified_pass_sound circ =
  let c = Gen.build circ in
  let single f =
    let c', st = f c in
    cert_ok (Transpile.Certify.check [ st ] c c')
  in
  single Transpile.Passes.cancel_inverses_cert
  && single Transpile.Passes.merge_rotations_cert
  && single (fun c -> Transpile.Passes.drop_identities_cert c)
  && single Transpile.Passes.fuse_1q_cert
  && single Transpile.Passes.prune_lightcone_cert
  && (let c', cert = Transpile.Passes.optimize_cert c in
      cert_ok (Transpile.Certify.check cert c c'))
  && (let plan, st = Transpile.Segments.compile_cert c in
      cert_ok (Transpile.Certify.check_plan [ st ] c plan))
  && (let plan, st = Transpile.Segments.compile_cert ~clifford_direct:true c in
      cert_ok (Transpile.Certify.check_plan [ st ] c plan))
  && (Morphcore.Verify.certify_transpile c).Morphcore.Verify.certified

let certified_mutants_rejected circ =
  List.for_all Mutate.rejected (Mutate.mutants (Gen.build circ))

let cmat_bits a b =
  a.Linalg.Cmat.re = b.Linalg.Cmat.re && a.Linalg.Cmat.im = b.Linalg.Cmat.im

(* ---- characterization ---- *)

let costs_equal (a : Sim.Cost.t) (b : Sim.Cost.t) =
  a.Sim.Cost.executions = b.Sim.Cost.executions
  && a.Sim.Cost.shots = b.Sim.Cost.shots
  && a.Sim.Cost.gate_ops = b.Sim.Cost.gate_ops
  && a.Sim.Cost.one_qubit_gates = b.Sim.Cost.one_qubit_gates
  && a.Sim.Cost.two_qubit_gates = b.Sim.Cost.two_qubit_gates
  && a.Sim.Cost.measurements = b.Sim.Cost.measurements

(* ---- static analysis: lightcone pruning & stabilizer routing ---- *)

(* [prune_preserves_traces] runs on *pure* sketches: pruning drops resets
   outside the cone, which would shift the measurement generator stream of
   a stochastic trajectory and make an exact single-run comparison
   meaningless (only the trajectory *average* is preserved there). *)
let prune_preserves_traces circ =
  let c = Gen.build circ in
  let full = (Sim.Engine.run c).Sim.Engine.traces in
  let pruned = (Sim.Engine.run (Transpile.Passes.prune_lightcone c)).Sim.Engine.traces in
  traces_match full pruned

let prune_idempotent circ =
  let c = Transpile.Passes.prune_lightcone (Gen.build circ) in
  List.length (Circuit.instrs (Transpile.Passes.prune_lightcone c))
  = List.length (Circuit.instrs c)

let lightcone_restrict_matches circ =
  let c = Gen.build circ in
  let full = (Sim.Engine.run c).Sim.Engine.traces in
  List.for_all
    (fun cone ->
      let sub, _ = Analysis.Lightcone.restrict c cone in
      let restricted = (Sim.Engine.run sub).Sim.Engine.traces in
      match
        ( List.assoc_opt cone.Analysis.Lightcone.id restricted,
          List.assoc_opt cone.Analysis.Lightcone.id full )
      with
      | Some a, Some b -> Linalg.Cmat.frob_norm (Linalg.Cmat.sub a b) <= eps
      | _ -> false)
    (Analysis.Lightcone.cones c)

let stabilizer_traces_agree circ =
  let c = Gen.build circ in
  (not (Sim.Engine.stabilizer_applicable c))
  || traces_match
       (Sim.Engine.stabilizer_traces c)
       (Sim.Engine.run c).Sim.Engine.traces

let sparse_vs_statevec circ =
  let c = Gen.build circ in
  (not (Sim.Engine.sparse_applicable c))
  || traces_match
       (Sim.Engine.sparse_traces c)
       (Sim.Engine.run c).Sim.Engine.traces

let rank_vs_statevec circ =
  let c = Gen.build circ in
  (not (Sim.Engine.rank_applicable c))
  || traces_match
       (Sim.Engine.rank_traces c)
       (Sim.Engine.run c).Sim.Engine.traces

let samples_agree ?(bitwise = false) (a : Morphcore.Characterize.t)
    (b : Morphcore.Characterize.t) =
  costs_equal a.Morphcore.Characterize.cost b.Morphcore.Characterize.cost
  && Array.for_all2
       (fun (sa : Morphcore.Characterize.sample)
            (sb : Morphcore.Characterize.sample) ->
         cmat_bits sa.Morphcore.Characterize.input_dm
           sb.Morphcore.Characterize.input_dm
         &&
         if bitwise then
           List.length sa.Morphcore.Characterize.traces
           = List.length sb.Morphcore.Characterize.traces
           && List.for_all2
                (fun (ia, ma) (ib, mb) -> ia = ib && cmat_bits ma mb)
                sa.Morphcore.Characterize.traces
                sb.Morphcore.Characterize.traces
         else
           traces_match sa.Morphcore.Characterize.traces
             sb.Morphcore.Characterize.traces)
       a.Morphcore.Characterize.samples b.Morphcore.Characterize.samples

(* A hand-written characterization: per sample, the split child
   generator, [Program.run_traces] and the mode's degradation, in the
   order [Characterize.run] documents. The degradation mirrors the
   (private) one in [Characterize]; keep the two in step. *)
let characterize_reference ~rng ?noise ~trajectories ~mode program ~count =
  let module C = Morphcore.Characterize in
  let k = Morphcore.Program.num_input_qubits program in
  let circuit = program.Morphcore.Program.circuit in
  let inputs =
    Array.init count (fun index ->
        Clifford.Sampling.state rng Clifford.Sampling.Clifford k ~index)
  in
  let children = Array.init count (Stats.Rng.split rng) in
  let cost = Sim.Cost.create () in
  let degrade rng (id, exact) =
    if id = 0 then (id, exact)
    else
      match mode with
      | C.Exact ->
          Sim.Cost.record_many cost circuit ~circuits:1 ~shots_each:1;
          (id, exact)
      | C.Tomography { shots; project } ->
          let tomo =
            Tomography.State_tomo.run ~project rng ~shots ~truth:exact ()
          in
          Sim.Cost.record_total cost circuit
            ~executions:tomo.Tomography.State_tomo.settings
            ~total_shots:tomo.Tomography.State_tomo.shots_used;
          (id, tomo.Tomography.State_tomo.rho)
      | C.Probs_only { shots } ->
          let tomo =
            Tomography.State_tomo.probs_only rng ~shots ~truth:exact ()
          in
          Sim.Cost.record_total cost circuit ~executions:1
            ~total_shots:tomo.Tomography.State_tomo.shots_used;
          (id, tomo.Tomography.State_tomo.rho)
  in
  let samples =
    Array.mapi
      (fun i input_state ->
        let rng = children.(i) in
        let traces =
          Morphcore.Program.run_traces ~rng ?noise ~trajectories program
            ~input:input_state
          |> List.map (degrade rng)
        in
        let v = Qstate.Statevec.to_cvec input_state in
        { C.input_state; input_dm = Linalg.Cmat.outer v v; traces })
      inputs
  in
  (samples, cost)

let characterize_matches_reference ?pool ?noise
    ?(mode = Morphcore.Characterize.Exact) circ =
  let program = Morphcore.Program.make (Gen.build circ) in
  let t =
    Morphcore.Characterize.run ?pool ~rng:(Stats.Rng.make 99) ~mode ?noise
      ~trajectories:6 program ~count:4
  in
  let samples, cost =
    characterize_reference ~rng:(Stats.Rng.make 99) ?noise ~trajectories:6
      ~mode program ~count:4
  in
  samples_agree ~bitwise:true t
    { t with Morphcore.Characterize.samples; cost }

(* Routing oracles: the reference draws the same basis inputs up front and
   passes them through [Characterize.run ~inputs], which the router never
   takes — so it runs the per-sample [Program.run_traces] path on exactly
   the inputs and child generators the routed run uses. Same cost meter,
   traces within eps. *)
let routed_vs_reference ?pool ?wall c =
  let program = Morphcore.Program.make c in
  let routed =
    Morphcore.Characterize.run ?pool ?wall ~rng:(Stats.Rng.make 99)
      ~kind:Clifford.Sampling.Basis program ~count:4
  in
  let rng = Stats.Rng.make 99 in
  let k = Morphcore.Program.num_input_qubits program in
  let inputs =
    List.init 4 (fun index ->
        Clifford.Sampling.state rng Clifford.Sampling.Basis k ~index)
  in
  let reference =
    Morphcore.Characterize.run ?pool ?wall ~rng ~inputs program ~count:4
  in
  samples_agree routed reference

let characterize_stabilizer_route ?pool circ =
  let c = Gen.build circ in
  (not (Sim.Engine.stabilizer_applicable c)) || routed_vs_reference ?pool c

(* the wall forced to zero so the sparse / rank engines fire on small
   circuits; vacuous when the router still declines (e.g. Clifford
   circuits go to the stabilizer route, covered above) *)
let characterize_scale_route ?pool circ =
  let c = Gen.build circ in
  match Sim.Engine.auto_route ~wall:0. c with
  | Some (`Sparse | `Rank) -> routed_vs_reference ?pool ~wall:0. c
  | Some `Stabilizer | None -> true

(* ---- cache transparency ---- *)

let samples_traces_identical (a : Morphcore.Characterize.t)
    (b : Morphcore.Characterize.t) =
  Array.length a.Morphcore.Characterize.samples
  = Array.length b.Morphcore.Characterize.samples
  && Array.for_all2
       (fun (sa : Morphcore.Characterize.sample)
            (sb : Morphcore.Characterize.sample) ->
         cmat_bits sa.Morphcore.Characterize.input_dm
           sb.Morphcore.Characterize.input_dm
         && List.length sa.Morphcore.Characterize.traces
            = List.length sb.Morphcore.Characterize.traces
         && List.for_all2
              (fun (ia, ma) (ib, mb) -> ia = ib && cmat_bits ma mb)
              sa.Morphcore.Characterize.traces
              sb.Morphcore.Characterize.traces)
       a.Morphcore.Characterize.samples b.Morphcore.Characterize.samples

let samples_traces_close (a : Morphcore.Characterize.t)
    (b : Morphcore.Characterize.t) =
  Array.length a.Morphcore.Characterize.samples
  = Array.length b.Morphcore.Characterize.samples
  && Array.for_all2
       (fun (sa : Morphcore.Characterize.sample)
            (sb : Morphcore.Characterize.sample) ->
         cmat_bits sa.Morphcore.Characterize.input_dm
           sb.Morphcore.Characterize.input_dm
         && traces_match sa.Morphcore.Characterize.traces
              sb.Morphcore.Characterize.traces)
       a.Morphcore.Characterize.samples b.Morphcore.Characterize.samples

(* Content-addressed caching must be invisible in the results. Four runs
   of the same characterization — uncached, cold cache, warm cache, and
   through a byte-starved cache whose entries keep getting evicted — and
   a persistence reload (resident tier dropped, entries re-read from
   disk) when [dir] is given: the cached runs must agree bit-for-bit
   with each other (every cached value is a pure function of its key;
   tomography degradation draws from key-derived generators), and with
   the uncached run within the engine tolerance (the incremental path
   simulates lightcone-restricted units, which reorders the arithmetic
   by ~1e-15). *)
let cache_transparent ?pool ?dir circ =
  let c = Gen.build circ in
  let program = Morphcore.Program.make c in
  let run ?cache () =
    Morphcore.Characterize.run ?pool ?cache ~rng:(Stats.Rng.make 2718)
      ~trajectories:4 program ~count:3
  in
  let uncached = run () in
  let cache = Cache.create ?dir () in
  let cold = run ~cache () in
  let warm = run ~cache () in
  samples_traces_identical cold warm
  && samples_traces_close uncached cold
  && (let tiny = Cache.create ~max_bytes:512 () in
      let tcold = run ~cache:tiny () in
      let twarm = run ~cache:tiny () in
      samples_traces_identical cold tcold
      && samples_traces_identical tcold twarm)
  &&
  match dir with
  | None -> true
  | Some _ ->
      Cache.drop_memory cache;
      samples_traces_identical cold (run ~cache ())

(* ---- observability transparency ---- *)

(* Enabling [Obs] must not perturb any engine: instrumentation reads no
   generator, reorders no arithmetic, and branches on nothing but the
   enabled flag. Run every engine with the global switch off, then on
   (restoring the caller's setting either way), and compare the outputs
   with (=) — bit-identical, no tolerance. The density-matrix engine is
   skipped past 6 measurements, where its branch tree gets expensive. *)
let obs_transparent circ =
  let c = Gen.build circ in
  let measures =
    List.fold_left
      (fun acc i ->
        match i with Circuit.Instr.Measure _ -> acc + 1 | _ -> acc)
      0 (Circuit.instrs c)
  in
  let run_all () =
    let eng = Sim.Engine.run ~rng:(Stats.Rng.make 0x0B5) c in
    let tps =
      Sim.Engine.tracepoint_states ~rng:(Stats.Rng.make 0x0B5) ~trajectories:4
        c
    in
    let plan = Transpile.Segments.compile c in
    let dm = if measures <= 6 then Some (Sim.Dm_engine.run c) else None in
    (eng, tps, plan, dm)
  in
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.configure ~enabled:was)
    (fun () ->
      Obs.configure ~enabled:false;
      let off = run_all () in
      Obs.configure ~enabled:true;
      let on = run_all () in
      off = on)

(* ---- server-path observability transparency ---- *)

(* wall time is the one legitimately nondeterministic field a request
   emits; everything else must be bit-identical *)
let rec strip_seconds = function
  | Server.Jsonx.Obj fields ->
      Server.Jsonx.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "seconds" then None else Some (k, strip_seconds v))
           fields)
  | Server.Jsonx.List l -> Server.Jsonx.List (List.map strip_seconds l)
  | v -> v

(* [obs_transparent] through the daemon path: one full verify RPC
   (parse, characterize, solve, verdict, cache deltas) driven through
   [Server.handle_line] against a fresh state + cache, with obs off and
   then on — every emitted protocol line except wall time must be
   byte-identical. This is the PR 5 contract extended to the service
   layer: request ids, spans, logs, RED metrics and the flight recorder
   may observe a request but never perturb it. *)
let server_obs_transparent circ =
  let c = Gen.build circ in
  let c =
    if Circuit.tracepoints c = [] then Circuit.tracepoint 1 [ 0 ] c else c
  in
  let tp = fst (List.hd (Circuit.tracepoints c)) in
  let req =
    Server.Jsonx.to_string
      (Server.Jsonx.Obj
         [
           ("id", Server.Jsonx.int 1);
           ("request_id", Server.Jsonx.Str "oracle");
           ("method", Server.Jsonx.Str "verify");
           ( "params",
             Server.Jsonx.Obj
               [
                 ("qasm", Server.Jsonx.Str (Qasm.to_string c));
                 ("count", Server.Jsonx.int 3);
                 ("seed", Server.Jsonx.int 7);
                 ( "guarantee",
                   Server.Jsonx.List
                     [
                       Server.Jsonx.Str (Printf.sprintf "purity-ge:%d,0.0" tp);
                     ] );
               ] );
         ])
  in
  let drive () =
    let state = Server.make_state ~cache:(Cache.create ()) () in
    let out = ref [] in
    ignore (Server.handle_line state ~emit:(fun v -> out := v :: !out) req);
    List.rev_map (fun v -> Server.Jsonx.to_string (strip_seconds v)) !out
  in
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.configure ~enabled:was)
    (fun () ->
      Obs.configure ~enabled:false;
      let off = drive () in
      Obs.configure ~enabled:true;
      let on = drive () in
      off = on)

(* ---- statistical verdicts ---- *)

(* Sequential and fixed shot budgets must agree on unambiguous
   distribution assertions. Both sides of the dichotomy are forced: the
   TRUE output distribution of the circuit (both budgets must hold —
   the significance levels are set to 1e-6, so a false reject is a
   once-per-million-sweeps event, not a flake), and a broken expectation
   with every probability halved (the missing half lands in the "other"
   bucket that observes nothing, a ~shots/2 chi-square: both budgets
   must reject). *)
let sequential_vs_fixed_verdict circ =
  let c = Gen.build circ in
  let program = Morphcore.Program.make c in
  let n = Circuit.num_qubits c in
  let input = Qstate.Statevec.basis n 0 in
  let probs = Qstate.Statevec.probs (Sim.Engine.run c).Sim.Engine.state in
  (* listed support: up to 8 heaviest outcomes above 1e-3 *)
  let listed =
    Array.to_list (Array.mapi (fun k p -> (k, p)) probs)
    |> List.filter (fun (_, p) -> p > 1e-3)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < 8)
  in
  if listed = [] then true (* no category above threshold: vacuous *)
  else
  let check ~significance expected budget seed =
    let dist = Morphcore.Assertion.Dist.make ~significance expected in
    (Morphcore.Verify.check_counts ~budget ~rng:(Stats.Rng.make seed) program
       dist ~input)
      .Morphcore.Verify.counts_hold
  in
  let seq =
    `Sequential { Stats.Tests.alpha = 1e-6; beta = 1e-6; max_shots = 2048 }
  in
  let agree_true =
    check ~significance:1e-6 listed (`Fixed 2048) 3
    && check ~significance:1e-6 listed seq 3
  in
  let broken = List.map (fun (k, p) -> (k, p /. 2.)) listed in
  let agree_broken =
    (not (check ~significance:1e-6 broken (`Fixed 2048) 5))
    && not (check ~significance:1e-6 broken seq 5)
  in
  agree_true && agree_broken

(* Under a true null hypothesis, p-values must be Uniform(0,1) — the
   property every verdict in the stats layer leans on. Student-t
   p-values are continuous, so the exact one-sample KS test applies with
   no discreteness slack: draw 80 independent t-tests of N(0,1) data
   against mu = 0 and KS their p-values against the uniform CDF. The
   sketch only seeds the RNG stream, so the sweep exercises 100
   independent streams per run. *)
let pvalue_uniform_under_null circ =
  let rng = Stats.Rng.make (Hashtbl.hash circ land 0x3FFFFFFF) in
  let pvalues =
    Array.init 80 (fun _ ->
        let xs = Array.init 12 (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
        (Stats.Tests.t_one_sample ~mu:0. xs).Stats.Tests.pvalue)
  in
  let cdf x = Float.min 1. (Float.max 0. x) in
  (Stats.Tests.ks_one_sample ~cdf pvalues).Stats.Tests.pvalue > 1e-4

(* ---- validation objective: gradients and bit-identical values ---- *)

(* The generated pure circuit, with a one-qubit tracepoint (98) on qubit 0
   and a full-register one (99) appended, characterized at the Theorem 2
   budget. *)
let validation_approx circ =
  let c = Gen.build circ in
  let n = Circuit.num_qubits c in
  let c =
    c |> Circuit.tracepoint 98 [ 0 ] |> Circuit.tracepoint 99 (List.init n Fun.id)
  in
  let program = Morphcore.Program.make c in
  let ch =
    Morphcore.Characterize.run ~rng:(Stats.Rng.make 31) program
      ~count:(Morphcore.Approx.samples_for_full_accuracy ~n_in:n)
  in
  (n, Morphcore.Approx.of_characterization ch)

(* one predicate of every kind that has an adjoint, over the input (0),
   tracepoint 98 and tracepoint 99 *)
let adjoint_predicates n =
  let open Morphcore.Predicate in
  let d = 1 lsl n in
  let ket k =
    Linalg.Cmat.init 2 2 (fun i j ->
        if i = k && j = k then Linalg.Cx.one else Linalg.Cx.zero)
  in
  [
    Is_pure 99;
    Purity_ge (98, 0.8);
    Equals (0, 99);
    Equals_const (98, ket 0);
    Not_equals_const (98, ket 1, 0.5);
    Distance_le (0, 99, 0.3);
    Expect_ge (99, Qstate.Pauli.single n 0 Qstate.Pauli.Z, 0.2);
    Expect_le (98, [| Qstate.Pauli.X |], 0.1);
    Diag_in_range (99, d - 1, 0.2, 0.6);
  ]

let validation_assumes n =
  let open Morphcore.Predicate in
  [
    Purity_ge (0, 0.7);
    Diag_in_range (0, 0, 0.3, 0.7);
    Expect_le (99, Qstate.Pauli.single n (n - 1) Qstate.Pauli.X, 0.);
  ]

(* the assertions the gradient oracles sweep: each adjoint predicate alone,
   with the assumes, and as a max of two guarantees *)
let validation_assertions n =
  let preds = adjoint_predicates n in
  let second = Morphcore.Predicate.Purity_ge (99, 0.9) in
  List.concat_map
    (fun p ->
      [
        Morphcore.Assertion.make ~assumes:[] ~guarantees:[ p ] ();
        Morphcore.Assertion.make ~assumes:(validation_assumes n) ~guarantees:[ p ] ();
        Morphcore.Assertion.make ~assumes:[] ~guarantees:[ p; second ] ();
      ])
    preds

let projections : Morphcore.Approx.projection list = [ `Trace; `Psd ]

let validation_objective ~projection approx assertion =
  let options = { Morphcore.Verify.default_options with projection } in
  Optimize.Constrained.penalized ~mu:10.
    (Morphcore.Verify.problem ~options approx assertion)

(* Under [`Trace] the coefficients are divided by the input's trace, whose
   pole at zero makes central differences meaningless long before the
   1e-9 switch; sampled points keep the trace at least this far from it. *)
let trace_floor = 0.1

(* Distance from [alpha] to the nearest point where the penalized
   objective is not differentiable: a zero eigenvalue of the candidate
   input under [`Psd] (the clip), the [trace_floor] band under [`Trace], a
   norm at zero, a [max] switch (between guarantees, or the two sides of
   [Diag_in_range]), or a constraint at its penalty threshold. *)
let kink_distance ~projection approx assertion alpha =
  let open Morphcore in
  let raw = Approx.input_of_alpha approx alpha in
  let input_margin =
    match projection with
    | `Psd ->
        let w, _ = Linalg.Eig.hermitian raw in
        Array.fold_left (fun acc x -> Float.min acc (Float.abs x)) infinity w
    | `Trace -> Float.abs (Linalg.Cx.re (Linalg.Cmat.trace raw)) -. trace_floor
  in
  let env = Approx.point_state (Approx.point ~projection approx alpha) in
  let norm_margin d = Linalg.Cmat.frob_norm d in
  let pred_margin = function
    | Predicate.Is_pure tp ->
        let rho = env tp in
        norm_margin (Linalg.Cmat.sub (Linalg.Cmat.mul rho (Linalg.Cmat.adjoint rho)) rho)
    | Predicate.Equals (a, b) | Predicate.Distance_le (a, b, _) ->
        norm_margin (Linalg.Cmat.sub (env a) (env b))
    | Predicate.Equals_const (tp, c) | Predicate.Not_equals_const (tp, c, _) ->
        norm_margin (Linalg.Cmat.sub (env tp) c)
    | Predicate.Diag_in_range (tp, k, lo, hi) ->
        let v = Linalg.Cx.re (Linalg.Cmat.get (env tp) k k) in
        Float.abs (lo -. v -. (v -. hi))
    | _ -> infinity
  in
  let preds = assertion.Assertion.guarantees @ assertion.Assertion.assumes in
  let margins = List.map pred_margin preds in
  let max_switch =
    match
      List.sort (fun a b -> compare b a)
        (List.map (fun p -> Predicate.eval p env) assertion.Assertion.guarantees)
    with
    | a :: b :: _ -> a -. b
    | _ -> infinity
  in
  let thresholds =
    List.map (fun p -> Float.abs (Predicate.eval p env)) assertion.Assertion.assumes
  in
  List.fold_left Float.min (Float.min input_margin max_switch) (margins @ thresholds)

let kink_margin = 1e-3

(* seeded interior points: uniform draws in the box, rejected until every
   kink is at least [kink_margin] away *)
let interior_points ~projection approx assertion rng count =
  let dim = Morphcore.Approx.n_sample approx in
  let rec draw acc tries =
    if List.length acc = count || tries = 0 then acc
    else
      let alpha = Array.init dim (fun _ -> Stats.Rng.uniform rng (-1.) 1.) in
      if kink_distance ~projection approx assertion alpha >= kink_margin then
        draw (alpha :: acc) (tries - 1)
      else draw acc (tries - 1)
  in
  draw [] (50 * count)

let gradient_close ~analytic ~numeric =
  Array.for_all2
    (fun a b -> Float.abs (a -. b) <= 1e-6 +. (1e-5 *. Float.abs b))
    analytic numeric

let gradient_matches_numeric circ =
  let n, approx = validation_approx circ in
  let rng = Stats.Rng.make (Hashtbl.hash circ land 0x3FFFFFFF) in
  List.for_all
    (fun projection ->
      List.for_all
        (fun assertion ->
          let obj = validation_objective ~projection approx assertion in
          Option.is_some obj.Optimize.Objective.grad
          && List.for_all
               (fun alpha ->
                 gradient_close
                   ~analytic:(Optimize.Objective.gradient obj alpha)
                   ~numeric:(Optimize.Objective.num_grad obj alpha))
               (interior_points ~projection approx assertion rng 3))
        (validation_assertions n))
    projections

let gradient_finite_at_degenerate circ =
  let n, approx = validation_approx circ in
  let d = 1 lsl n in
  let mixed =
    Morphcore.Approx.decompose approx
      (Linalg.Cmat.rscale (1. /. float_of_int d) (Linalg.Cmat.identity d))
  in
  let clipped = Array.map (fun a -> -.a) mixed in
  let zero_distance =
    Morphcore.Assertion.make ~assumes:[]
      ~guarantees:[ Morphcore.Predicate.Equals (99, 99) ]
      ()
  in
  let anywhere =
    Array.init (Morphcore.Approx.n_sample approx) (fun i ->
        Float.of_int ((i mod 5) - 2) /. 3.)
  in
  let finite g = Array.for_all Float.is_finite g in
  List.for_all
    (fun projection ->
      List.for_all
        (fun assertion ->
          let obj = validation_objective ~projection approx assertion in
          let grad = Optimize.Objective.gradient obj in
          finite (grad mixed)
          && finite (grad anywhere)
          && finite (grad clipped)
          (* the fully clipped input falls back to a constant state *)
          && (projection = `Trace || Array.for_all (fun x -> x = 0.) (grad clipped)))
        (zero_distance :: validation_assertions n))
    projections

(* The validation forward pass as the verifier computed it before it had
   gradients: per-sample [Cmat.rscale]/[Cmat.add] sums, an [Eig.funm]
   clip, and a fresh [Rmat.lstsq] decomposition for every evaluation. *)
let reference_env ~projection (approx : Morphcore.Approx.t) alpha =
  let open Linalg in
  let combine states alpha =
    let d, _ = Cmat.dims states.(0) in
    let acc = ref (Cmat.create d d) in
    Array.iteri
      (fun i a -> if a <> 0. then acc := Cmat.add !acc (Cmat.rscale a states.(i)))
      alpha;
    !acc
  in
  let inputs = approx.Morphcore.Approx.inputs in
  let raw = combine inputs alpha in
  let phys =
    match projection with
    | `Trace ->
        let t = Cx.re (Cmat.trace raw) in
        if Float.abs t > 1e-9 then Array.map (fun a -> a /. t) alpha else alpha
    | `Psd ->
        let clipped = Eig.funm (fun x -> Float.max x 0.) (Cmat.hermitize raw) in
        let t = Cx.re (Cmat.trace clipped) in
        let d = fst (Cmat.dims raw) in
        let projected =
          if t <= 1e-14 then Cmat.rscale (1. /. float_of_int d) (Cmat.identity d)
          else Cmat.rscale (1. /. t) clipped
        in
        Rmat.lstsq ~ridge:1e-9
          (Lazy.force approx.Morphcore.Approx.basis)
          (Hsvec.encode projected)
  in
  fun tp ->
    combine
      (if tp = 0 then inputs else List.assoc tp approx.Morphcore.Approx.outputs)
      phys

let problem_values_match_reference circ =
  let n, approx = validation_approx circ in
  let dim = Morphcore.Approx.n_sample approx in
  let rng = Stats.Rng.make (Hashtbl.hash circ land 0x3FFFFFFF) in
  let points =
    Array.make dim 0.
    :: List.init 4 (fun _ -> Array.init dim (fun _ -> Stats.Rng.uniform rng (-1.) 1.))
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  List.for_all
    (fun projection ->
      let options = { Morphcore.Verify.default_options with projection } in
      List.for_all
        (fun assertion ->
          let problem = Morphcore.Verify.problem ~options approx assertion in
          let obj = problem.Optimize.Constrained.objective in
          List.for_all
            (fun alpha ->
              let env = reference_env ~projection approx alpha in
              (* a gradient first, so the values below come from the memo *)
              if Option.is_some obj.Optimize.Objective.grad then
                ignore (Optimize.Objective.gradient obj alpha);
              same (obj.Optimize.Objective.f alpha)
                (List.fold_left
                   (fun acc p -> Float.max acc (Morphcore.Predicate.eval p env))
                   neg_infinity assertion.Morphcore.Assertion.guarantees)
              && List.for_all2
                   (fun (g : Optimize.Objective.t) p ->
                     same (g.Optimize.Objective.f alpha) (Morphcore.Predicate.eval p env))
                   problem.Optimize.Constrained.constraints
                   assertion.Morphcore.Assertion.assumes)
            points)
        (validation_assertions n))
    projections
