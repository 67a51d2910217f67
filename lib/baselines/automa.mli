(** Automata-based equivalence checking (Chen et al., PLDI 2023; paper
    baseline "Automa").

    The tree-automata framework represents sets of basis-state/amplitude
    terms symbolically; on the structured circuits it targets that is
    equivalent to exact sparse simulation of each basis input, with cost
    governed by the support size the circuit develops. A candidate is
    flagged when its final sparse state differs (up to global phase) from
    the reference's on some tested basis input — phase bugs are visible,
    unlike probability-only testing. *)

(** [equal ?eps a b] compares two sparse states up to global phase: the
    phase is fixed by [a]'s largest amplitude, then every amplitude of
    either state must agree within [eps]. *)
val equal : ?eps:float -> Sim.Sparse.t -> Sim.Sparse.t -> bool

(** [check ?rng ?input_preps ~tests ~reference ~candidate ()] compares
    sparse final states across test inputs. By default basis inputs are
    used; [input_preps] supplies preparation circuits over the input qubits
    (e.g. Clifford states — the framework represents stabilizer sets
    symbolically). *)
val check :
  ?rng:Stats.Rng.t ->
  ?input_preps:Circuit.t list ->
  tests:int ->
  reference:Morphcore.Program.t ->
  candidate:Morphcore.Program.t ->
  unit ->
  Verifier.result

(** [supports program] — the framework handles measurement-free circuits
    whose specification is structural; continuous-expectation models
    (arbitrary-angle RX/RY/U3 everywhere) are out of scope, mirroring the
    paper's "/" entries. *)
val supports : Morphcore.Program.t -> bool
