(** Box-constrained real objective functions (to be maximized). *)

type t = {
  dim : int;
  f : float array -> float;
  grad : (float array -> float array) option;
      (** exact gradient of [f], returning a fresh array; [None] means
          {!gradient} falls back to central differences *)
  lower : float array;
  upper : float array;
}

(** [make ~dim ?lower ?upper ?grad f] builds an objective; bounds default to
    [[-1, 1]] per coordinate. *)
val make :
  dim:int ->
  ?lower:float array ->
  ?upper:float array ->
  ?grad:(float array -> float array) ->
  (float array -> float) ->
  t

(** [clamp t x] projects [x] into the box in place. *)
val clamp : t -> float array -> unit

(** [random_point t rng] draws a uniform point in the box. *)
val random_point : t -> Stats.Rng.t -> float array

(** [num_grad ?eps t x] is the central-difference gradient (2 * dim
    evaluations of [f]). *)
val num_grad : ?eps:float -> t -> float array -> float array

(** [gradient t x] is [t.grad x] when the objective carries an exact
    gradient, {!num_grad} otherwise. The result is a fresh array. *)
val gradient : t -> float array -> float array
