(** Differential oracles: run the same circuit through two independent
    implementations and demand agreement. Each oracle returns [true] on
    agreement so it can sit directly inside a QCheck property; on
    disagreement the QCheck shrinker (see {!Gen.shrink_circ}) minimizes the
    circuit before reporting.

    Oracle matrix (engine pair x circuit class):
    - {!statevec_vs_dm} — pure circuits: final state and tracepoint states.
    - {!statevec_vs_tableau} — Clifford circuits: full density matrix and
      per-qubit stabilizer [<Z>] expectations.
    - {!statevec_vs_sparse} — pure circuits from any basis input.
    - {!qasm_roundtrip} — any program: [parse (to_string c)] is [c].
    - {!transpile_preserves} — pure circuits: each peephole pass keeps the
      unitary (up to global phase). *)

val eps : float
(** Agreement threshold, [1e-9]. *)

(** [fidelity_pure_dm psi rho] is [<psi| rho |psi>] computed directly (no
    eigendecomposition, so accurate to ~1e-14 — safe against {!eps}). *)
val fidelity_pure_dm : Qstate.Statevec.t -> Qstate.Density.t -> float

(** [traces_match ?eps a b] — same tracepoint ids in the same order, with
    reduced density matrices within [eps] in Frobenius norm. *)
val traces_match :
  ?eps:float -> (int * Linalg.Cmat.t) list -> (int * Linalg.Cmat.t) list -> bool

(** [statevec_vs_dm c] — trajectory statevec vs exact density matrix on a
    measurement-free circuit: final-state fidelity [>= 1 - eps] and
    tracepoint agreement. *)
val statevec_vs_dm : Gen.circ -> bool

(** [statevec_vs_tableau c] — statevec vs CHP tableau on a Clifford
    circuit: exact density matrices within [eps] and [<Z_q>] agreement for
    every qubit. *)
val statevec_vs_tableau : Gen.circ -> bool

(** [statevec_vs_sparse ?input c] — dense vs sparse state vector from basis
    state [input] (default 0), compared up to global phase. *)
val statevec_vs_sparse : ?input:int -> Gen.circ -> bool

(** [qasm_roundtrip c] — [parse (to_string c)] reproduces the circuit
    structurally (gate names canonicalized, params within [eps] to absorb
    the printer's [%.12g]). *)
val qasm_roundtrip : Gen.circ -> bool

(** [transpile_preserves pass c] — the pass keeps the circuit unitary up to
    global phase ([Transpile.Equiv.unitaries_equal]). *)
val transpile_preserves : (Circuit.t -> Circuit.t) -> Gen.circ -> bool

(** All peephole passes by name — [transpile_preserves] is property-tested
    against each. *)
val all_passes : (string * (Circuit.t -> Circuit.t)) list

(** [certified_pass_sound c] — every certificate-emitting pass variant
    (the peephole passes, the optimize fixpoint, lightcone pruning,
    segment compilation with and without Clifford-direct routing, and the
    full [Morphcore.Verify.certify_transpile] pipeline) produces a
    certificate the independent checker accepts on the generated circuit.
    Runs on every circuit class, including near-Clifford and feedback
    programs. *)
val certified_pass_sound : Gen.circ -> bool

(** [certified_mutants_rejected c] — every applicable {!Mutate} mutant of
    the generated circuit is rejected by the checker. *)
val certified_mutants_rejected : Gen.circ -> bool

(** [prune_preserves_traces c] — {!Transpile.Passes.prune_lightcone} keeps
    every tracepoint's reduced state within {!eps} on a pure circuit (the
    oracle is exact only there: pruned resets would shift the measurement
    generator stream of a single stochastic trajectory). *)
val prune_preserves_traces : Gen.circ -> bool

(** [prune_idempotent c] — pruning an already-pruned circuit removes
    nothing further. *)
val prune_idempotent : Gen.circ -> bool

(** [lightcone_restrict_matches c] — for every tracepoint of a pure
    circuit, simulating {!Analysis.Lightcone.restrict}'s cone subcircuit
    from [|0...0>] reproduces the tracepoint's reduced state within
    {!eps}. *)
val lightcone_restrict_matches : Gen.circ -> bool

(** [stabilizer_traces_agree c] — on circuits where
    [Sim.Engine.stabilizer_applicable] holds, the lightcone-restricted
    tableau traces agree with the state-vector engine within {!eps};
    vacuously true otherwise. *)
val stabilizer_traces_agree : Gen.circ -> bool

(** [sparse_vs_statevec c] — on circuits where
    [Sim.Engine.sparse_applicable] holds, the lightcone-restricted
    sparse-coordinate traces agree with the state-vector engine within
    {!eps}; vacuously true otherwise. *)
val sparse_vs_statevec : Gen.circ -> bool

(** [rank_vs_statevec c] — on circuits where [Sim.Engine.rank_applicable]
    holds, the sum-over-stabilizers traces agree with the state-vector
    engine within {!eps}; vacuously true otherwise. *)
val rank_vs_statevec : Gen.circ -> bool

(** [characterize_matches_reference ?pool ?noise ?mode c] —
    [Morphcore.Characterize.run] (4 Clifford-kind samples, 6 trajectories,
    seeded) is bit-for-bit a hand-written per-sample loop: sampled inputs,
    one split child generator per sample, [Program.run_traces] and the
    [mode]'s degradation (default [Exact]). Cost meters, input density
    matrices and every trace are compared with [=], no tolerance. Run on
    pure, measuring and noisy programs. *)
val characterize_matches_reference :
  ?pool:Parallel.Pool.t ->
  ?noise:Sim.Noise.t ->
  ?mode:Morphcore.Characterize.mode ->
  Gen.circ ->
  bool

(** [characterize_stabilizer_route ?pool c] — on applicable circuits,
    [Basis]-kind characterization (stabilizer-routed) matches a reference
    that draws the same basis inputs up front and passes them as
    [Characterize.run ~inputs], which is never routed: identical cost
    meters, traces within {!eps}; vacuously true otherwise. *)
val characterize_stabilizer_route : ?pool:Parallel.Pool.t -> Gen.circ -> bool

(** [characterize_scale_route ?pool c] — with the dense-amplitude wall
    forced to zero via [Characterize.run ~wall:0.] (the global
    [Sim.Engine.dense_amp_wall] is never touched) so the scalable routes
    fire on small circuits: whenever [auto_route ~wall:0.] picks
    [`Sparse] or [`Rank], [Basis]-kind characterization matches the same
    [~inputs] reference as {!characterize_stabilizer_route} (identical
    cost meters, traces within {!eps}); vacuously true otherwise. *)
val characterize_scale_route : ?pool:Parallel.Pool.t -> Gen.circ -> bool

(** [cache_transparent ?pool ?dir c] — content-addressed caching is
    invisible: cold, warm and eviction-thrashed (512-byte budget) cached
    characterizations agree bit-for-bit, the cached path agrees with the
    uncached one within {!eps}, and — when [dir] names a cache
    directory — so does a persistence reload ([Cache.drop_memory], then
    re-read from disk). *)
val cache_transparent : ?pool:Parallel.Pool.t -> ?dir:string -> Gen.circ -> bool

(** [obs_transparent c] — the observability layer's zero-interference
    contract: every engine (gate-by-gate, tracepoint routing, density
    matrix) and the segment compiler produce bit-for-bit identical outputs with
    [Obs] disabled and enabled. Restores the caller's [Obs] setting. *)
val obs_transparent : Gen.circ -> bool

(** [server_obs_transparent c] — the observability contract extended
    through the daemon path: a full verify RPC driven through
    [Server.handle_line] (fresh state and cache each time) emits
    byte-identical protocol lines with [Obs] disabled and enabled, wall
    time ([seconds] fields) excepted. Restores the caller's [Obs]
    setting. *)
val server_obs_transparent : Gen.circ -> bool

(** [sequential_vs_fixed_verdict c] — [`Fixed] and [`Sequential] shot
    budgets of [Morphcore.Verify.check_counts] agree on both sides of an
    unambiguous dichotomy: the circuit's true output distribution (both
    hold) and a halved-probability corruption of it (both reject). The
    significance levels are 1e-6, so a statistical flake is a
    once-per-million-sweeps event. *)
val sequential_vs_fixed_verdict : Gen.circ -> bool

(** [pvalue_uniform_under_null c] — 80 Student-t p-values of N(0,1) data
    tested against their true mean are exact-KS-consistent with
    Uniform(0,1) at level 1e-4. The sketch only seeds the RNG stream. *)
val pvalue_uniform_under_null : Gen.circ -> bool

(** {2 The validation objective}

    These oracles run on the generated circuit (built pure) with a
    one-qubit tracepoint 98 on qubit 0 and a full-register tracepoint 99
    appended, characterized at the Theorem 2 budget. They sweep one
    predicate of every kind that has an adjoint, alone, under three
    assumes, and as the max of two guarantees, under both projections,
    through [Optimize.Constrained.penalized ~mu:10.] of
    [Morphcore.Verify.problem]. *)

(** [gradient_matches_numeric c] — the exact gradient agrees with
    [Objective.num_grad] within [1e-6 + 1e-5 |numeric|] per coordinate
    at seeded interior points: points whose every kink (a zero eigenvalue
    of the candidate input, a vanishing trace, a norm at zero, a [max]
    switch, a constraint at its penalty threshold) is at least 1e-3 away. *)
val gradient_matches_numeric : Gen.circ -> bool

(** [gradient_finite_at_degenerate c] — exact gradients are finite at the
    degenerate points: [Equals] at distance zero, the maximally mixed
    input (every eigenvalue equal), and its negation, which takes the
    fully clipped fallback of the PSD projection (where the gradient is
    exactly zero under [`Psd]). *)
val gradient_finite_at_degenerate : Gen.circ -> bool

(** [problem_values_match_reference c] — objective and constraint values
    of [Morphcore.Verify.problem], read after a gradient at the same point
    (so from the shared forward pass), are bit-identical to a direct
    re-implementation of the forward pass with per-sample matrix sums, an
    [Eig.funm] clip and a fresh [Rmat.lstsq] decomposition, at the origin
    and at seeded points of the box. *)
val problem_values_match_reference : Gen.circ -> bool
