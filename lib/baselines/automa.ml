open Morphcore
open Linalg

(* exact sparse simulation of a measurement-free circuit from a basis
   state; never densifies, so the cost follows the support the circuit
   develops *)
let sparse_run c ~input =
  let t = Sim.Sparse.basis (Circuit.num_qubits c) input in
  List.iter
    (function
      | Circuit.Instr.Gate g -> Sim.Sparse.apply_gate g t
      | Circuit.Instr.Tracepoint _ | Circuit.Instr.Barrier _ -> ()
      | _ -> invalid_arg "Automa: non-unitary instruction")
    (Circuit.instrs c);
  t

let equal ?(eps = 1e-9) a b =
  Sim.Sparse.num_qubits a = Sim.Sparse.num_qubits b
  &&
  (* find the global-phase factor from the largest amplitude of a *)
  let best = ref None in
  List.iter
    (fun (k, v) ->
      match !best with
      | Some (_, bv) when Cx.norm2 bv >= Cx.norm2 v -> ()
      | _ -> best := Some (k, v))
    (Sim.Sparse.entries a);
  match !best with
  | None -> Sim.Sparse.support b = 0
  | Some (k, va) ->
      let vb = Sim.Sparse.amplitude b k in
      if Cx.norm vb <= eps then false
      else begin
        let phase = Cx.div va vb in
        let ok = ref (Float.abs (Cx.norm phase -. 1.) < 1e-6) in
        List.iter
          (fun (k, va) ->
            if not (Cx.equal ~eps va (Cx.mul phase (Sim.Sparse.amplitude b k)))
            then ok := false)
          (Sim.Sparse.entries a);
        List.iter
          (fun (k, vb) ->
            if not (Cx.equal ~eps (Sim.Sparse.amplitude a k) (Cx.mul phase vb))
            then ok := false)
          (Sim.Sparse.entries b);
        !ok
      end

let embed_input program input =
  (* sparse runs work on basis indices over the full register: shift the
     basis input into the program's input-qubit positions *)
  let qs = program.Program.input_qubits in
  List.fold_left
    (fun (acc, bit) q ->
      ((if (input lsr bit) land 1 = 1 then acc lor (1 lsl q) else acc), bit + 1))
    (0, 0) qs
  |> fst

let strip_tracepoints c =
  (* sparse runs only need the unitary body *)
  Circuit.map_gates (fun g -> Some g) c

(* prepend an input-preparation circuit (over the program's input qubits)
   to the program body, remapping prep qubits onto the input positions *)
let with_prep program prep =
  let n = Circuit.num_qubits program.Program.circuit in
  let qs = Array.of_list program.Program.input_qubits in
  let remapped =
    List.map (Circuit.Instr.remap (fun q -> qs.(q))) (Circuit.instrs prep)
  in
  let c = ref (Circuit.empty ~clbits:(Circuit.num_clbits program.Program.circuit) n) in
  List.iter (fun i -> c := Circuit.add i !c) remapped;
  List.iter (fun i -> c := Circuit.add i !c) (Circuit.instrs program.Program.circuit);
  !c

let check ?rng ?input_preps ~tests ~reference ~candidate () =
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 47 in
  let k = Program.num_input_qubits candidate in
  let meter = Sim.Cost.create () in
  let cases =
    match input_preps with
    | Some preps -> List.map (fun p -> `Prep p) preps
    | None ->
        List.map (fun i -> `Basis i) (Verifier.basis_inputs rng ~k ~count:tests)
  in
  let (bug_found, tests_used), seconds =
    Verifier.timed (fun () ->
        let rec go used = function
          | [] -> (false, used)
          | case :: rest ->
              let run program =
                match case with
                | `Basis input ->
                    sparse_run
                      (strip_tracepoints program.Program.circuit)
                      ~input:(embed_input program input)
                | `Prep prep ->
                    sparse_run (strip_tracepoints (with_prep program prep)) ~input:0
              in
              let s_ref = run reference and s_cand = run candidate in
              if not (equal s_ref s_cand) then (true, used + 1)
              else go (used + 1) rest
        in
        go 0 cases)
  in
  { Verifier.bug_found; tests_used; cost = meter; seconds }

let continuous_rotation (g : Circuit.Gate.t) =
  List.mem g.Circuit.Gate.name [ "rx"; "ry"; "u3" ]

let supports program =
  List.for_all
    (function
      | Circuit.Instr.Gate g -> not (continuous_rotation g)
      | Circuit.Instr.If_gate _ | Circuit.Instr.Measure _ | Circuit.Instr.Reset _
        ->
          false
      | _ -> true)
    (Circuit.instrs program.Program.circuit)
