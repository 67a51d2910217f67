(** Input sampling (Section 5.1): run the program under a set of sampled
    inputs and record the state at every tracepoint.

    Tracepoint states can be taken exactly from the simulator ([Exact]), or
    passed through simulated state tomography with finite shots
    ([Tomography]) as on real hardware, or reduced to the diagonal only
    ([Probs_only] — the paper's Strategy-prop). The cost meter accounts the
    quantum executions the chosen mode would need on a device. *)

type mode =
  | Exact
  | Tomography of { shots : int; project : bool }
  | Probs_only of { shots : int }

type sample = {
  input_state : Qstate.Statevec.t;
  input_dm : Linalg.Cmat.t;
  traces : (int * Linalg.Cmat.t) list;  (** includes the reserved input id 0 *)
}

type t = {
  program : Program.t;
  samples : sample array;
  mode : mode;
  cost : Sim.Cost.t;
  obs : Obs.Span.summary;
      (** per-phase span summary of this run (empty unless observability
          was enabled — [MORPHQPV_OBS=1] or [Obs.configure]) *)
}

(** [run ?pool ?rng ?kind ?mode ?noise ?trajectories ?inputs program
    ~count] samples [count] inputs of the given [kind] (default
    [Clifford]); an explicit [inputs] list overrides kind/count (used by
    Strategy-adapt). Each input runs through {!Program.run_traces} — the
    gate-by-gate engine, averaging [trajectories] runs for stochastic or
    noisy programs. The one exception is [Basis]-kind sampling (no
    explicit [inputs]) of an ideal program that {!Sim.Engine.auto_route}
    accepts: each sample then goes to the stabilizer tableau, the sparse
    engine or the stabilizer-rank engine, restricted to each tracepoint's
    lightcone. That routing condition is static (program text only,
    never sampled values). Sampled inputs are characterized in parallel
    on [pool] (default [Parallel.Pool.global ()]), each with its own
    [Stats.Rng.split] child generator and private cost meter; meters are
    merged in sample order, so results and cost totals are identical for
    any domain count. [budget] selects the shot policy for the Tomography /
    Probs_only degradation modes (see {!Tomography.State_tomo.run}):
    absent or [`Fixed], behavior and generator streams are exactly the
    pre-budget ones; [`Sequential] stops each estimate early once it is
    variance-matched to the [max_shots] fixed equivalent, recording the
    saving in [verify_shots_saved_total].

    [cache] switches to the content-addressed incremental path. Ideal,
    deterministic programs are characterized one backward cone at a time:
    each tracepoint's unit (its cone plus the input qubits, in canonical
    qubit order — {!Cache.Canon.cone_unit}) is keyed by canonical bytes,
    input fingerprint, entry-generator fingerprint and mode, so a warm
    re-verification performs zero simulation and zero tomography shots,
    and an edited program re-characterizes only tracepoints whose cone
    hash changed. Every cached value is a pure function of its key —
    tomography degradation draws from a generator derived from (key,
    sample index), never the caller's stream — so hits are
    bit-indistinguishable from recomputation, across eviction and
    persistence reload. The caller's generator is consumed exactly as on
    the uncached path (sampled inputs + one split child per sample) even
    on full hits, so downstream draws are position-independent of cache
    state. Stochastic / noisy / wider-than-cacheable programs fall back
    to a whole-result memo keyed by the exact circuit bytes; programs the
    scalable-engine route would take run uncached. Without [cache] the
    behavior is byte-for-byte the pre-cache one.

    [wall] overrides {!Sim.Engine.dense_amp_wall} for this run's routing
    decision without touching the global (safe under concurrency). *)
val run :
  ?pool:Parallel.Pool.t ->
  ?rng:Stats.Rng.t ->
  ?kind:Clifford.Sampling.kind ->
  ?mode:mode ->
  ?budget:Stats.Tests.budget ->
  ?noise:Sim.Noise.t ->
  ?trajectories:int ->
  ?inputs:Qstate.Statevec.t list ->
  ?cache:Cache.t ->
  ?wall:float ->
  Program.t ->
  count:int ->
  t

(** [tracepoint_ids t] lists the recorded tracepoint ids (including 0). *)
val tracepoint_ids : t -> int list
