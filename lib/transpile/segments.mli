(** Segment compiler: split a circuit at its fences and fuse each
    purely-unitary segment into block operators. The resulting
    {!Certify.plan} is the last target of the certified transpile chain
    ([Morphcore.Verify.certify_transpile], lint MQ021); nothing executes
    it.

    Fences are the non-unitary instructions — tracepoints, measurements,
    resets and classical feedback — plus barriers: no fusion crosses them,
    so every snapshot and every classically-dependent branch sees exactly
    the state the gate-by-gate engine would produce. Barriers fence fusion
    but emit nothing into the plan.

    Fusion policy (the qubit-cutoff heuristic):
    - a segment whose whole support spans at most [cutoff] qubits is a
      candidate for a single [2^k x 2^k] block operator over that support
      (applying it costs one fused operator per run instead of one per
      gate);
    - a wider segment is greedily packed left to right: consecutive gates
      are merged while their running union support stays within
      [block_cutoff] qubits (this subsumes classic 1q-run fusion at
      [block_cutoff = 1]);
    - a single gate whose own support exceeds [block_cutoff] (e.g. a
      many-control Toffoli) stays a [Direct] item — a sparse row sweep
      beats materializing a huge, mostly-identity block;
    - every candidate block is kept only if its dense (zero-skipping)
      application — [nnz(u)/2^k] multiply-accumulates per amplitude — is
      at least as cheap as replaying its gates by row sweeps
      ([2/2^controls] per amplitude each). Long narrow segments fuse;
      short dense ones (e.g. two random gates that barely share a
      support) stay [Direct].

    Block unitaries are built by running the segment's gates column by
    column ([Sim.Engine.unitary]). *)

val default_cutoff : int
(** [6]: full-segment fusion up to 64-dimensional blocks. Beyond this the
    [O(4^k)] block application overtakes per-gate sweeps. *)

val default_block_cutoff : int
(** [3]: greedy packing inside wide segments stops at 8x8 blocks. *)

(** [compile ?cutoff ?block_cutoff ?clifford_direct c] compiles [c] into a
    plan. Raises [Invalid_argument] if a cutoff is [< 1].

    Segments whose direct replay cost is provably below any block's
    ([< 1.0] multiply-accumulates per amplitude, e.g. a lone CX) are
    emitted [Direct] without materializing the candidate block at all —
    same plan as before, cheaper compile. With [clifford_direct] (default
    [false]) segments classified Clifford by [Analysis.Classify] also skip
    dense fusion: their sparse kernels are cheap and keeping them as plain
    gates preserves the option of running them on the stabilizer tableau. *)
val compile :
  ?cutoff:int ->
  ?block_cutoff:int ->
  ?clifford_direct:bool ->
  Circuit.t ->
  Certify.plan

(** [compile_cert] is {!compile} — same plan bit-for-bit ([compile] is
    [fst] of it) — additionally returning the translation-validation
    {!Certify.step} relating the circuit to the plan: each [Block] is a
    [Local_equiv] group over the instructions it fused, [Direct] gates and
    [Fence] instructions are mapped untouched, and dropped barriers carry
    [Barrier_elim] obligations. *)
val compile_cert :
  ?cutoff:int ->
  ?block_cutoff:int ->
  ?clifford_direct:bool ->
  Circuit.t ->
  Certify.plan * Certify.step
