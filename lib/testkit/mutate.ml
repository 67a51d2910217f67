(* Deliberately broken certified passes: each mutant doctors a genuine
   pass result — output, certificate, or both — in a way a buggy rewrite
   could, and the independent checker must reject every one. This is the
   checker's own soundness test (accepting any mutant means a hole). *)

type mutant = {
  mutant_name : string;
  before : Circuit.t;
  cert : Transpile.Certify.certificate;
  target : Transpile.Certify.target;
}

let rejected m =
  let failed = function Ok _ -> false | Error _ -> true in
  match m.target with
  | Transpile.Certify.Circ after ->
      failed (Transpile.Certify.check m.cert m.before after)
  | Transpile.Certify.Plan plan ->
      failed (Transpile.Certify.check_plan m.cert m.before plan)

let failures m =
  let fails = function Ok _ -> [] | Error fs -> fs in
  match m.target with
  | Transpile.Certify.Circ after ->
      fails (Transpile.Certify.check m.cert m.before after)
  | Transpile.Certify.Plan plan ->
      fails (Transpile.Certify.check_plan m.cert m.before plan)

let replace_instr k instr' c =
  let _, out =
    List.fold_left
      (fun (i, acc) instr ->
        (i + 1, Circuit.add (if i = k then instr' else instr) acc))
      (0, Circuit.empty ~clbits:(Circuit.num_clbits c) (Circuit.num_qubits c))
      (Circuit.instrs c)
  in
  out

(* a fused/merged replacement gate with its leading parameter nudged: the
   recorded Local_equiv product no longer matches *)
let wrong_replacement c =
  let c', step = Transpile.Passes.fuse_1q_cert c in
  let target_k =
    List.find_map
      (function
        | Transpile.Certify.Local_equiv { after = [ k ]; _ } -> Some k
        | _ -> None)
      step.Transpile.Certify.obligations
  in
  match target_k with
  | None -> None
  | Some k -> (
      match List.nth (Circuit.instrs c') k with
      | Circuit.Instr.Gate g ->
          let params =
            match g.Circuit.Gate.params with
            | p :: rest -> (p +. 0.05) :: rest
            | [] -> [ 0.05 ]
          in
          let g' =
            Circuit.Gate.make ~params ~controls:g.Circuit.Gate.controls
              g.Circuit.Gate.name g.Circuit.Gate.targets
          in
          let doctored = replace_instr k (Circuit.Instr.Gate g') c' in
          Some
            {
              mutant_name = "wrong_replacement";
              before = c;
              cert =
                [
                  {
                    step with
                    Transpile.Certify.output = Transpile.Certify.Circ doctored;
                  };
                ];
              target = Transpile.Certify.Circ doctored;
            }
      | _ -> None)

(* an instruction inside the lightcone deleted anyway, with a forged
   Outside_cone obligation: the checker re-derives the cone and objects *)
let over_pruned c =
  let c', step = Transpile.Passes.prune_lightcone_cert c in
  let victim =
    List.find_map
      (fun (i, k) ->
        match List.nth (Circuit.instrs c') k with
        | Circuit.Instr.Gate _ -> Some (i, k)
        | _ -> None)
      step.Transpile.Certify.mapped
  in
  match victim with
  | None -> None
  | Some (i0, k0) ->
      let _, out =
        List.fold_left
          (fun (k, acc) instr ->
            (k + 1, if k = k0 then acc else Circuit.add instr acc))
          ( 0,
            Circuit.empty ~clbits:(Circuit.num_clbits c') (Circuit.num_qubits c')
          )
          (Circuit.instrs c')
      in
      let mapped =
        List.filter_map
          (fun (i, k) ->
            if k = k0 then None else Some (i, (if k > k0 then k - 1 else k)))
          step.Transpile.Certify.mapped
      in
      Some
        {
          mutant_name = "over_pruned";
          before = c;
          cert =
            [
              {
                step with
                Transpile.Certify.obligations =
                  Transpile.Certify.Outside_cone { index = i0 }
                  :: step.Transpile.Certify.obligations;
                mapped;
                output = Transpile.Certify.Circ out;
              };
            ];
          target = Transpile.Certify.Circ out;
        }

(* a gate commuted past the measurement that reads its wire, certified as
   a harmless permutation: the per-wire order projection objects *)
let reordered_measurement c =
  let instrs = Array.of_list (Circuit.instrs c) in
  let n = Array.length instrs in
  let site = ref None in
  for i = 0 to n - 2 do
    if !site = None then
      match (instrs.(i), instrs.(i + 1)) with
      | Circuit.Instr.Gate g, Circuit.Instr.Measure { qubit; _ }
        when List.mem qubit (Circuit.Gate.qubits g) ->
          site := Some i
      | _ -> ()
  done;
  match !site with
  | None -> None
  | Some i0 ->
      let out =
        Array.to_list
          (Array.mapi
             (fun i instr ->
               if i = i0 then instrs.(i0 + 1)
               else if i = i0 + 1 then instrs.(i0)
               else instr)
             instrs)
        |> List.fold_left
             (fun acc instr -> Circuit.add instr acc)
             (Circuit.empty ~clbits:(Circuit.num_clbits c)
                (Circuit.num_qubits c))
      in
      let mapped =
        List.init n (fun i ->
            if i = i0 then (i0, i0 + 1)
            else if i = i0 + 1 then (i0 + 1, i0)
            else (i, i))
      in
      Some
        {
          mutant_name = "reordered_measurement";
          before = c;
          cert =
            [
              {
                Transpile.Certify.pass = "mutant_reorder";
                obligations = [];
                mapped;
                output = Transpile.Certify.Circ out;
              };
            ];
          target = Transpile.Certify.Circ out;
        }

(* a fused block's unitary corrupted in one entry: the plan no longer
   implements the segment it claims to *)
let wrong_block c =
  let plan, step = Transpile.Segments.compile_cert c in
  let hit = ref false in
  let items =
    List.map
      (function
        | Transpile.Certify.Block b when not !hit ->
            hit := true;
            let u = Linalg.Cmat.copy b.Transpile.Certify.u in
            Linalg.Cmat.set u 0 0
              (Linalg.Cx.add (Linalg.Cmat.get u 0 0) (Linalg.Cx.make 0.05 0.));
            Transpile.Certify.Block { b with Transpile.Certify.u }
        | item -> item)
      plan.Transpile.Certify.items
  in
  if not !hit then None
  else
    let plan' = { plan with Transpile.Certify.items } in
    Some
      {
        mutant_name = "wrong_block";
        before = c;
        cert =
          [
            {
              step with
              Transpile.Certify.output = Transpile.Certify.Plan plan';
            };
          ];
        target = Transpile.Certify.Plan plan';
      }

let mutants c =
  List.filter_map
    (fun f -> f c)
    [ wrong_replacement; over_pruned; reordered_measurement; wrong_block ]
