(** Assertion validation (Section 6): pack the guarantee objective and the
    assumption constraints into a constrained maximization over the
    decomposition coefficients [alpha] and solve it classically.

    The candidate input is [rho(alpha) = sum alpha_i sigma_in_i]. Inside
    the objective it is made physical per [options.projection]: by
    default ([`Psd]) it is projected onto the density matrices and
    decomposed again, and every tracepoint state is recombined from those
    coefficients ({!Approx.point}); [`Trace] only normalizes the trace.
    The reported counter-example gets a final PSD projection. The
    assertion holds when the maximal guarantee objective stays
    [<= epsilon_obj].

    The objective and each constraint carry an exact reverse-mode
    gradient when every predicate they read has one ({!Predicate.vjp}),
    so a gradient costs about one evaluation instead of [2 * dim];
    objectives over [Phase_diff] or [Custom] use central differences.
    The objective, the constraints and their gradients share one forward
    pass per point. *)

type verdict =
  | Verified of {
      confidence : Confidence.t;
      max_objective : float;  (** best guarantee violation found (<= tolerance) *)
    }
  | Violated of {
      counterexample : Linalg.Cmat.t;  (** input density matrix triggering the bug *)
      alpha : float array;
      objective : float;
    }

type options = {
  solver : Optimize.Solvers.method_;
  budget : int;
      (** objective-evaluation budget; solver iterations are sized as if
          every gradient were numeric ([2 * dim] evaluations), so an
          exact gradient runs the same search with fewer evaluations *)
  epsilon_obj : float;  (** violation tolerance on the guarantee objective *)
  epsilon_acc : float;  (** accuracy threshold for confidence (Theorem 3) *)
  recovery : Approx.recovery;
  projection : [ `Trace | `Psd ];
      (** how candidate states are made physical inside the objective:
          trace normalization only (cheap) or a full PSD projection
          (slower, much tighter search space) *)
  restarts : int;  (** independent optimization attempts *)
}

val default_options : options

(** [problem ?options approx assertion] is the constrained maximization
    {!validate} solves: maximize the largest guarantee objective subject
    to every assume's objective being [<= 0], over [alpha] in
    [[-1, 1]^n_sample], through one shared, memoized evaluator. *)
val problem :
  ?options:options -> Approx.t -> Assertion.t -> Optimize.Constrained.problem

(** [validate ?options ?rng ?confirm approx assertion] solves the
    constrained maximization and returns the verdict. When [confirm] is
    given, a candidate counter-example is replayed on the actual program
    (dominant eigenvector input, plus its nearest basis state) and demoted
    to [Verified] if the real execution satisfies the assertion —
    eliminating optimizer artifacts, as the paper's validation step does by
    reporting concrete counter-examples.

    [cache] memoizes the verdict, keyed by the approximation's data (its
    characterized relation), the assertion, [options], the entry
    generator fingerprint and the confirmation program — a pure function
    of all verdict inputs. A hit skips the solve entirely and therefore
    does not advance [rng]; pass a generator whose continuation nothing
    else relies on. *)
val validate :
  ?options:options ->
  ?rng:Stats.Rng.t ->
  ?confirm:Program.t ->
  ?cache:Cache.t ->
  Approx.t ->
  Assertion.t ->
  verdict

(** [validate_traced] is {!validate} plus the span-tree summary of the
    verification's own work (solver spans included). The summary is empty
    unless observability is enabled ([MORPHQPV_OBS=1] or
    [Obs.configure]). *)
val validate_traced :
  ?options:options ->
  ?rng:Stats.Rng.t ->
  ?confirm:Program.t ->
  ?cache:Cache.t ->
  Approx.t ->
  Assertion.t ->
  verdict * Obs.Span.summary

(** [check_on_program ?rng ?tol program assertion ~input] executes the
    program on one concrete input and evaluates the assertion on the true
    tracepoint states — used to confirm counter-examples and as the
    ground-truth oracle in experiments. Mixed-state inputs are checked via
    their eigenvector decomposition's dominant component. *)
val check_on_program :
  ?rng:Stats.Rng.t ->
  ?tol:float ->
  Program.t ->
  Assertion.t ->
  input:Qstate.Statevec.t ->
  bool

(** [minimize_counterexample ?rng ?tol program assertion ~counterexample]
    simplifies a violating input for human consumption: it tries, in order,
    the nearest computational-basis state, each basis state the
    counter-example puts significant weight on, and the dominant
    eigenvector, returning the simplest pure input that still violates the
    assertion on the real program (falling back to the dominant eigenvector
    when only the mixed state violates). *)
val minimize_counterexample :
  ?rng:Stats.Rng.t ->
  ?tol:float ->
  Program.t ->
  Assertion.t ->
  counterexample:Linalg.Cmat.t ->
  Qstate.Statevec.t

(** Verdict of a distribution-level assertion on measurement counts. *)
type counts_result = {
  counts_hold : bool;  (** the observed counts are consistent with the
                           expected distribution *)
  test : Stats.Tests.result;
      (** chi-square goodness-of-fit on the counts actually taken, so the
          verdict can be independently re-derived from recorded data *)
  shots_used : int;
  early_stop : bool;  (** a sequential budget stopped before [max_shots] *)
}

(** [check_counts ?budget ?rng ?noise program dist ~input] samples the
    program's final measurement distribution on [input] and tests it
    against the expected distribution [dist] (see {!Assertion.Dist}).

    With [`Fixed shots] (default 2048): one chi-square goodness-of-fit
    test at [dist.significance], pooling all unlisted outcomes into one
    category. With [`Sequential {alpha; beta; max_shots}]: shots are
    drawn in blocks feeding a Wald SPRT of the expected distribution
    against a 20% contamination alternative (uniform over all 2^n
    outcomes); each interim look additionally rejects outright on an
    overwhelming chi-square (Haybittle–Peto boundary,
    [min 0.001 (alpha / 10)]) to catch deviation directions the mixture
    cannot represent. Crossing either boundary stops early
    ([verify_early_stop_total], shots saved in
    [verify_shots_saved_total]); reaching [max_shots] falls back to the
    fixed-budget chi-square rule at level [alpha] — so the two budgets
    agree by construction once the cap is reached, and always on
    point-mass (deterministic) distributions. An outcome the expectation
    gives zero mass is an immediate certain violation. *)
val check_counts :
  ?budget:Stats.Tests.budget ->
  ?rng:Stats.Rng.t ->
  ?noise:Sim.Noise.t ->
  Program.t ->
  Assertion.Dist.t ->
  input:Qstate.Statevec.t ->
  counts_result

(** Result of sequential assertion probing over random inputs. *)
type probe_result = {
  probe_holds : bool;
  trials : int;
  failures : int;  (** inputs on which the assertion failed *)
  probe_early_stop : bool;
  counterexample_input : Qstate.Statevec.t option;
      (** first violating input, when any *)
}

(** [probe_assertion ?rng ?tol ?budget program assertion] draws Haar-random
    inputs and checks the assertion on the real program per input
    ({!check_on_program}), treating each input as a Bernoulli trial of the
    violation rate. [`Fixed n] (default 32) runs exactly [n] trials and
    holds iff none fail. [`Sequential] runs a Bernoulli SPRT of
    "violation rate <= 1%" against ">= 25%": one observed violation
    rejects immediately at the default boundaries, ~14 consecutive passes
    accept early; at [max_shots] the fixed rule applies. *)
val probe_assertion :
  ?rng:Stats.Rng.t ->
  ?tol:float ->
  ?budget:Stats.Tests.budget ->
  Program.t ->
  Assertion.t ->
  probe_result

(** [probe_accuracies ?rng ?count approx program ~tracepoint] measures
    approximation accuracy on random Haar inputs against fresh program
    executions (feeds {!Confidence.estimate} and the accuracy figures). *)
val probe_accuracies :
  ?rng:Stats.Rng.t ->
  ?count:int ->
  Approx.t ->
  Program.t ->
  tracepoint:int ->
  float array

(** Result of a certified transpile run ({!certify_transpile}). *)
type certify_report = {
  certified : bool;  (** every obligation discharged by the checker *)
  cert_summary : Transpile.Certify.summary;
  cert_failures : Transpile.Certify.failure list;
      (** empty iff [certified]; each failure maps to lint code MQ021 *)
  cert_plan : Transpile.Certify.plan;
}

(** [certify_transpile ?locs c] runs the full transpile pipeline the
    verifier uses — peephole optimization to a fixed point, lightcone
    pruning, segment compilation — through the certificate-emitting pass
    variants and validates the whole chain with the independent checker
    ({!Transpile.Certify.check_plan}). [locs] gives per-instruction source
    locations of [c] for diagnostics. *)
val certify_transpile :
  ?locs:(int * int) array ->
  Circuit.t ->
  certify_report
