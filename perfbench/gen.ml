(* Seeded request corpora for the three workloads. Every request carries
   the verdict it must get, fixed by construction in the paper's
   density-matrix input domain (any input state, pure or mixed, that
   satisfies the assumptions), with a one-line reason. The program under
   test only ever sees the generated QASM text and the spec strings. *)

type request = {
  family : string;
  qasm : string;
  assumes : string list;
  guarantees : string list;
  inputs : int list option;  (** variable input qubits; [None] = all *)
  mode : string;  (** {!Server.Spec.parse_mode} syntax *)
  holds : bool;  (** expected verdict: [true] = VERIFIED *)
  why : string;
}

type gate = G1 of string * float option * int | Cx of int * int

let inverse = function
  | G1 ("s", None, q) -> G1 ("sdg", None, q)
  | G1 ("sdg", None, q) -> G1 ("s", None, q)
  | G1 ("t", None, q) -> G1 ("tdg", None, q)
  | G1 ("tdg", None, q) -> G1 ("t", None, q)
  | G1 (n, Some a, q) -> G1 (n, Some (-.a), q)
  | g -> g (* h, x and cx are self-inverse *)

let adjoint gates = List.rev_map inverse gates

let gate_line = function
  | G1 (n, None, q) -> Printf.sprintf "%s q[%d];" n q
  | G1 (n, Some a, q) -> Printf.sprintf "%s(%.6f) q[%d];" n a q
  | Cx (a, b) -> Printf.sprintf "cx q[%d],q[%d];" a b

let qubit_list qs = String.concat "," (List.map string_of_int qs)
let tracepoint id qs = Printf.sprintf "T %d q[%s];" id (qubit_list qs)

let program ~n lines =
  String.concat "\n"
    ([ "OPENQASM 2.0;"; Printf.sprintf "qreg q[%d];" n ] @ lines)
  ^ "\n"

(* angles are rounded to the printed precision, so a gate and its
   adjoint parse to exact negations *)
let angle st =
  Float.round ((Random.State.float st 6.2 -. 3.1) *. 1e6) /. 1e6

let random_1q st q =
  match Random.State.int st 7 with
  | 0 -> G1 ("h", None, q)
  | 1 -> G1 ("s", None, q)
  | 2 -> G1 ("t", None, q)
  | 3 -> G1 ("sdg", None, q)
  | 4 -> G1 ("rx", Some (angle st), q)
  | 5 -> G1 ("ry", Some (angle st), q)
  | _ -> G1 ("rz", Some (angle st), q)

let pick st l = List.nth l (Random.State.int st (List.length l))

let rec pick_pair st l =
  let a = pick st l and b = pick st l in
  if a <> b then (a, b) else pick_pair st l

(* [depth] layers, each a random one-qubit gate on every qubit of [qs]
   followed by one CX between two of them *)
let random_u st qs ~depth =
  List.concat
    (List.init depth (fun _ ->
         List.map (random_1q st) qs
         @ if List.length qs >= 2 then [ (fun (a, b) -> Cx (a, b)) (pick_pair st qs) ] else []))

let range a b = List.init (b - a) (fun i -> a + i)

(* Pauli string with Z on [q] of an [n]-qubit register; the leftmost
   character is the highest qubit *)
let z_on ~n q = String.init n (fun i -> if n - 1 - i = q then 'Z' else 'I')

let lines gates = List.map gate_line gates

let req ?(assumes = []) ?inputs ?(mode = "exact") ~family ~holds ~why qasm
    guarantees =
  { family; qasm; assumes; guarantees; inputs; mode; holds; why }

(* ------------------------- small-program families ----------------------- *)

(* Each family returns one request on [n] qubits; [bug] plants the
   defect (or tightens the spec) that makes the assertion fail. With
   [pragma], a family whose output distribution on |0..0> is known
   appends an expect pragma that holds. *)

let equals ?(pragma = false) st ~n ~bug =
  let qs = range 0 n in
  let u = random_u st qs ~depth:2 in
  let r = pick st qs in
  let mid = if bug then [ G1 ("x", None, r) ] else [] in
  (* U;U^-1 leaves |0..0> alone *)
  let expect = if pragma && not bug then [ "expect 0 1;" ] else [] in
  req ~family:"equals" ~holds:(not bug)
    ~why:
      (if bug then "a planted X between U and U^-1 gives the non-identity U^-1 X U"
       else "U;U^-1 is the identity channel, so T1 equals the input")
    (program ~n (lines (u @ mid @ adjoint u) @ [ tracepoint 1 qs ] @ expect))
    [ "equals:0,1" ]

let ancilla ?pragma:_ st ~n ~bug =
  let a = n - 1 in
  let u = random_u st (range 0 a) ~depth:2 in
  let leak = if bug then [ Cx (0, a) ] else [] in
  req ~family:"ancilla" ~holds:(not bug)
    ~assumes:[ Printf.sprintf "expect-ge:0,%s,1" (z_on ~n a) ]
    ~why:
      (if bug then "a planted CX copies q[0] onto the pinned ancilla"
       else "the assumption pins ancilla q[n-1] to |0> and no gate touches it")
    (program ~n (lines (u @ leak) @ [ tracepoint 1 [ a ] ]))
    [ "diag:1,0,0.99,1" ]

let pinned ?(pragma = false) st ~n ~bug =
  let qs = range 0 n in
  let j = pick st qs in
  let u = random_u st qs ~depth:2 in
  let flip = if bug then [ G1 ("x", None, j) ] else [] in
  let expect = if pragma then [ Printf.sprintf "expect %d 1;" (if bug then 1 lsl j else 0) ] else [] in
  req ~family:"pinned" ~holds:(not bug)
    ~assumes:[ Printf.sprintf "expect-ge:0,%s,1" (z_on ~n j) ]
    ~why:
      (if bug then "a planted X after U;U^-1 drives the pinned qubit to <Z> = -1"
       else "the assumption fixes <Z> = 1 on q[j] and U;U^-1 is the identity")
    (program ~n (lines (u @ adjoint u @ flip) @ [ tracepoint 1 [ j ] ] @ expect))
    [ "expect-ge:1,Z,0.9" ]

let diag_range ?pragma:_ st ~n ~bug =
  let qs = range 0 n in
  let u = random_u st qs ~depth:2 in
  let t = if n >= 3 then [ 0; 1 ] else [ pick st qs ] in
  let k = Random.State.int st (1 lsl List.length t) in
  req ~family:"diag" ~holds:(not bug)
    ~why:
      (if bug then "U is unitary, so the input U^-1|K,0..> puts all of T1's weight on K"
       else "a diagonal entry of a density matrix lies in [0, 1]")
    (program ~n (lines u @ [ tracepoint 1 t ]))
    [ Printf.sprintf "diag:1,%d,0,%s" k (if bug then "0.5" else "1") ]

let purity ?(pragma = false) st ~n ~bug =
  let a, b = pick_pair st (range 0 n) in
  let rest = List.filter (fun q -> q <> a && q <> b) (range 0 n) in
  let u = random_u st rest ~depth:2 in
  (* on two qubits, H;CX sends |00> to an equal mix of |00> and |11> *)
  let expect = if pragma && n = 2 then [ "expect(0.000001) 0 0.5, 3 0.5;" ] else [] in
  req ~family:"purity" ~holds:(not bug)
    ~why:
      (if bug then "H;CX turns the input |0..0> into a Bell pair, so q[a] has purity 1/2"
       else "a one-qubit state has purity at least 1/2")
    (program ~n (lines (u @ [ G1 ("h", None, a); Cx (a, b) ]) @ [ tracepoint 1 [ a ] ] @ expect))
    [ Printf.sprintf "purity-ge:1,%s" (if bug then "0.75" else "0.5") ]

let pure ?pragma:_ st ~n ~bug =
  let qs = range 0 n in
  let u = random_u st qs ~depth:2 in
  let a, b = pick_pair st qs in
  let ent, t =
    if bug then ([ G1 ("h", None, a); Cx (a, b) ], List.filter (( <> ) b) qs)
    else ([], qs)
  in
  req ~family:"pure" ~holds:(not bug) ~assumes:[ "pure:0" ]
    ~why:
      (if bug then "on the input U^-1|0..0>, H;CX entangles q[a] with the untraced q[b]"
       else "a unitary program maps pure inputs to pure states")
    (program ~n (lines (u @ ent) @ [ tracepoint 1 t ]))
    [ "pure:1" ]

(* examples/qasm/ghz.qasm, verbatim: the known-wrong case of the ROADMAP *)
let ghz_qasm =
  {|// GHZ state preparation; the tracepoint observes the full entangled
// register, so the lightcone of T 1 is all three qubits.
OPENQASM 2.0;
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
T 1 q[0,1,2];
// the final measurement distribution is half |000>, half |111>
expect 0 0.5, 7 0.5;
|}

let ghz () =
  req ~family:"ghz" ~holds:false
    ~why:"the maximally mixed input gives output purity 1/8 < 0.5" ghz_qasm
    [ "purity-ge:1,0.5" ]

(* distribution-only: X gates then H prepare an equal mix of two known
   basis states, checked by an expect pragma on the |0..0> input; [bug]
   claims a 0.9/0.1 split instead, which the chi-square test rejects only
   after the full shot budget, like a holding pragma *)
let expect_only st ~n ~bug =
  let qs = range 0 n in
  let xs = List.filter (fun _ -> Random.State.bool st) qs in
  let b = List.fold_left (fun acc q -> acc lor (1 lsl q)) 0 xs in
  let h = pick st qs in
  let b' = b lxor (1 lsl h) in
  req ~family:"expect" ~holds:(not bug)
    ~why:
      (if bug then "the pragma claims a 0.9/0.1 split where H gives 0.5/0.5"
       else "X gates then H prepare an equal mix of two known basis states")
    (program ~n
       (lines (List.map (fun q -> G1 ("x", None, q)) xs @ [ G1 ("h", None, h) ])
       @ [
           tracepoint 1 qs;
           Printf.sprintf "expect(0.000001) %d %s, %d %s;" b (if bug then "0.9" else "0.5") b'
             (if bug then "0.1" else "0.5");
         ]))
    []

(* ------------------------------- corpora -------------------------------- *)

let small_families = [| equals; ancilla; pinned; diag_range; purity; pure |]

(* cold-verify: one cycle is every small family with and without its bug,
   plus the ghz case. Two requests of each cycle have 3 qubits (a pair
   that rotates from cycle to cycle), the rest 2, so the median falls
   inside the 2-qubit cluster and p90 inside the 3-qubit one rather than
   in the gap between the two sizes. Requests are distinct for every
   index, since each draws its own circuit. *)
let cold_cycle = (2 * Array.length small_families) + 1

let cold st i =
  let c = i / cold_cycle and p = i mod cold_cycle in
  if p = cold_cycle - 1 then ghz ()
  else
    let n = if (p - c) mod 6 = 0 then 3 else 2 in
    small_families.(p / 2) ?pragma:None st ~n ~bug:(p mod 2 = 1)

(* warm-serve: a primed corpus holding, twice over with different
   circuits, every 2-qubit small family with and without its bug (with
   an expect pragma where the output distribution is known) and sixteen
   2- and 3-qubit expect-only programs. Three requests in four sample an
   expect pragma, so the median falls well inside the cluster of requests
   that sample, not at its edge. *)
let warm_classes = (2 * Array.length small_families) + 16
let warm_corpus = 2 * warm_classes

let warm st i =
  let k = 2 * Array.length small_families in
  let p = i mod warm_classes in
  if p >= k then expect_only st ~n:(2 + (p mod 2)) ~bug:(p >= k + 12)
  else small_families.(p / 2) ~pragma:true st ~n:2 ~bug:(p mod 2 = 1)

(* wide-characterize: a layered circuit W on the bulk qubits and a small
   V on the k input qubits, each followed by its inverse; T1 watches the
   inputs and T2 two bulk ancillas. The library path takes the input
   qubits explicitly (Strategy-const: the bulk starts in |0..0>). A cycle
   runs every (qubits, inputs) class in both modes, once with and once
   without the bug; the seed draws only the gates. The classes are few
   and of similar cost, so a run holds several whole cycles and its
   latency percentiles do not hinge on where the last cycle is cut. *)
let wide_classes = [| (16, 1); (13, 2); (12, 3); (14, 1); (16, 2); (15, 2) |]
let wide_cycle = 2 * Array.length wide_classes

let wide st i =
  let c = i / wide_cycle and p = i mod wide_cycle in
  let n, k = wide_classes.(p / 2) in
  let mode = if p mod 2 = 0 then "exact" else "tomo:8192" in
  let bug = (p + c) mod 2 = 1 in
  let use_equals = k <= 2 && (c + (p / 2)) mod 2 = 0 in
  let ins = range 0 k and bulk = range k n in
  let w = random_u st bulk ~depth:10 in
  let v = random_u st ins ~depth:2 in
  let b1, b2 = pick_pair st bulk in
  let t1 = if k = 3 then [ 0; 1 ] else ins in
  let mid = if bug && use_equals then [ G1 ("x", None, 0) ] else [] in
  let leak = if bug && not use_equals then [ Cx (0, b1) ] else [] in
  let qasm =
    program ~n
      (lines (w @ v @ mid @ adjoint v)
      @ [ tracepoint 1 t1 ]
      @ lines (adjoint w @ leak)
      @ [ tracepoint 2 [ b1; b2 ] ])
  in
  if use_equals then
    req ~family:"wide-equals" ~inputs:ins ~mode ~holds:(not bug)
      ~why:
        (if bug then "a planted X between V and V^-1 gives the non-identity V^-1 X V"
         else "V;V^-1 on the inputs is the identity, so T1 equals the input")
      qasm [ "equals:0,1" ]
  else
    req ~family:"wide-ancilla" ~inputs:ins ~mode ~holds:(not bug)
      ~why:
        (if bug then "a planted CX copies input q[0] onto ancilla q[b1]"
         else "W;W^-1 returns the bulk ancillas to |00> and no gate couples them to the input")
      qasm [ "diag:2,0,0.99,1" ]

(* [corpus gen ~seed n] draws requests [0, n) of a workload; request [i]
   depends only on [seed] and [i] *)
let corpus gen ~seed n =
  Array.init n (fun i -> gen (Random.State.make [| seed; i |]) i)
