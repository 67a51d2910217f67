(** Constrained maximization via the quadratic-penalty method.

    MorphQPV validates an assertion by maximizing the guarantee objective
    subject to the assumption predicates (all expressed as [g(x) <= 0]); this
    module reduces that to a sequence of unconstrained problems
    [f(x) - mu * sum max(0, g_i(x))^2] with growing [mu]. *)

type problem = {
  objective : Objective.t;  (** to maximize *)
  constraints : Objective.t list;
      (** feasible iff every [f] is [<= 0]; only [f] and [grad] are read *)
}

type solution = {
  x : float array;
  value : float;  (** objective at [x] *)
  max_violation : float;  (** max over constraints of [max 0 g(x)] *)
  feasible : bool;  (** violation below tolerance *)
  evals : int;
}

(** [penalized ~mu problem] is the unconstrained objective
    [f - mu * sum max(0, g)^2] over the objective's box. It carries the
    exact gradient [grad f - mu * sum 2 max(0, g) grad g] when the
    objective and every constraint carry one, and no gradient otherwise. *)
val penalized : mu:float -> problem -> Objective.t

(** [maximize ?budget ?rounds ?tol ~method_ rng problem] runs the penalty
    loop. [rounds] (default 4) controls how many times the penalty weight is
    increased (x10 each round, starting at 10). *)
val maximize :
  ?budget:int ->
  ?rounds:int ->
  ?tol:float ->
  method_:Solvers.method_ ->
  Stats.Rng.t ->
  problem ->
  solution
