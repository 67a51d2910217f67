type t = {
  dim : int;
  f : float array -> float;
  grad : (float array -> float array) option;
  lower : float array;
  upper : float array;
}

let make ~dim ?lower ?upper ?grad f =
  if dim <= 0 then invalid_arg "Objective.make: non-positive dimension";
  let lower = match lower with Some l -> l | None -> Array.make dim (-1.) in
  let upper = match upper with Some u -> u | None -> Array.make dim 1. in
  if Array.length lower <> dim || Array.length upper <> dim then
    invalid_arg "Objective.make: bound length mismatch";
  Array.iteri
    (fun i l -> if l > upper.(i) then invalid_arg "Objective.make: empty box")
    lower;
  { dim; f; grad; lower; upper }

let clamp t x =
  for i = 0 to t.dim - 1 do
    x.(i) <- Float.min t.upper.(i) (Float.max t.lower.(i) x.(i))
  done

let random_point t rng =
  Array.init t.dim (fun i -> Stats.Rng.uniform rng t.lower.(i) t.upper.(i))

let num_grad ?(eps = 1e-5) t x =
  Array.init t.dim (fun i ->
      let xi = x.(i) in
      x.(i) <- xi +. eps;
      let fp = t.f x in
      x.(i) <- xi -. eps;
      let fm = t.f x in
      x.(i) <- xi;
      (fp -. fm) /. (2. *. eps))

let gradient t x = match t.grad with Some g -> g x | None -> num_grad t x
