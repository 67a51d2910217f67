(** Derivative-free and gradient-based maximizers over box-constrained
    objectives: the three solver families the paper evaluates (stochastic
    gradient descent, genetic algorithm, quadratic programming) plus
    simulated annealing as used in the reference artifact. *)

type solution = { x : float array; value : float; evals : int }

(** [adam ?iters ?restarts ?lr rng obj] — Adam gradient ascent with
    random restarts (the paper's "SGD" solver). Gradients come from
    {!Objective.gradient}: exact when [obj] carries one, central
    differences otherwise. *)
val adam :
  ?iters:int -> ?restarts:int -> ?lr:float -> Stats.Rng.t -> Objective.t -> solution

(** [anneal ?iters ?restarts ?temp0 rng obj] — simulated annealing with a
    geometric cooling schedule. *)
val anneal :
  ?iters:int -> ?restarts:int -> ?temp0:float -> Stats.Rng.t -> Objective.t -> solution

(** [genetic ?generations ?population ?mutation rng obj] — tournament
    selection, blend crossover, Gaussian mutation, elitism. *)
val genetic :
  ?generations:int ->
  ?population:int ->
  ?mutation:float ->
  Stats.Rng.t ->
  Objective.t ->
  solution

(** [qp ?iters ?restarts rng obj] — projected conjugate-direction ascent with
    exact line search under a local quadratic model; exact for quadratic
    objectives (the paper's quadratic-programming solver role). *)
val qp : ?iters:int -> ?restarts:int -> Stats.Rng.t -> Objective.t -> solution

type method_ = [ `Adam | `Anneal | `Genetic | `Qp ]

val method_to_string : method_ -> string

(** [maximize ?budget method rng obj] dispatches on the method with a
    roughly comparable evaluation budget. Iteration counts of the
    gradient methods are sized as if every gradient cost [2 * dim] value
    evals (central differences), whether or not [obj] carries an exact
    gradient: an exact gradient runs the same search with fewer evals.

    Every solver records [solver_iterations_total{solver}],
    [solver_evals_total{solver}] (value evals, numeric-gradient probes
    included) and [solver_gradients_total{solver,kind}] with [kind] one
    of [analytic] or [numeric] when observability is enabled. *)
val maximize : ?budget:int -> method_ -> Stats.Rng.t -> Objective.t -> solution
