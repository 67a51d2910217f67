(* Translation validation for the transpile pipeline.

   Every rewrite pass (Passes, Segments) has a certificate-emitting
   variant producing a [step]: a set of local proof obligations plus the
   order-preserving map of untouched instructions, together with the
   step's output. [check] is the independent checker: it validates each
   step of the chain against the step's input and accepts only when

   - every input and output instruction is accounted for exactly once
     (by an obligation or by the untouched map) — nothing is silently
     inserted, dropped or duplicated;
   - the untouched map is an order-preserving injection between
     structurally equal instructions ([Permutation]);
   - every [Local_equiv] group's replaced product equals its replacement
     up to global phase on the group's union support (a direct
     [2^k x 2^k] matrix comparison — the whole circuit is never
     simulated), with every instruction interleaved into the group's
     span provably support-disjoint from it;
   - per-wire instruction order is preserved: projecting the surviving
     labeled operations onto each qubit wire and each classical-bit wire
     (measure writes, feedback reads) yields identical sequences on both
     sides — the Mazurkiewicz-trace argument that only commuting
     reorderings happened globally;
   - every [Outside_cone] deletion is re-derived from
     [Analysis.Lightcone.union_keep] on the step's input, every
     [Identity_elim] gate matrix is within eps of the identity, and
     every [Barrier_elim] instruction really is a barrier.

   The checker shares nothing with the pass implementations beyond the
   gate-matrix table ([Qstate.Gates.by_name], via [Sim.Engine.unitary]
   on single-instruction subcircuits): it never looks at provenance the
   passes recorded beyond the certificate itself, and re-derives every
   analysis fact it relies on. Cost is O(total obligation size): each
   obligation touches only its own instructions and a [2^k]-dimensional
   local space capped at {!max_support} qubits. *)

type obligation =
  | Local_equiv of { before : int list; after : int list }
      (** the product of the [before] input instructions equals the
          product of the [after] output instructions up to global phase
          on their union support; [after = []] claims the product is the
          identity (a deletion) *)
  | Outside_cone of { index : int }
      (** input instruction [index] was pruned as provably outside the
          union lightcone of all tracepoints and measurements *)
  | Identity_elim of { index : int; eps : float }
      (** input gate [index] was dropped as within [eps] of the identity *)
  | Barrier_elim of { index : int }
      (** input barrier [index] was dropped (plans carry no barriers) *)

(* the segment compiler's output: fused blocks, direct gates and fences *)
type block = { qubits : int array; u : Linalg.Cmat.t }

type item =
  | Block of block
  | Direct of Circuit.Gate.t
  | Fence of Circuit.Instr.t

type plan = { num_qubits : int; num_clbits : int; items : item list }

type target = Circ of Circuit.t | Plan of plan

type step = {
  pass : string;
  obligations : obligation list;
  mapped : (int * int) list;
      (** untouched instructions as (input index, output index) pairs *)
  output : target;
}

type certificate = step list

type failure = {
  fail_pass : string;
  kind : string;
  reason : string;
  before_index : int option;
  after_index : int option;
  loc : (int * int) option;
      (** source location of the offending input instruction, when the
          failing step is the first of the chain and [locs] were given *)
}

type summary = {
  chain_steps : int;
  local_equiv : int;
  outside_cone : int;
  identity_elim : int;
  barrier_elim : int;
  permutation : int;  (** mapped (untouched) instruction pairs *)
}

let max_support = 8

(* ----------------------------- summaries ------------------------------ *)

let summarize (cert : certificate) =
  List.fold_left
    (fun acc step ->
      let acc =
        { acc with permutation = acc.permutation + List.length step.mapped }
      in
      List.fold_left
        (fun acc -> function
          | Local_equiv _ -> { acc with local_equiv = acc.local_equiv + 1 }
          | Outside_cone _ -> { acc with outside_cone = acc.outside_cone + 1 }
          | Identity_elim _ ->
              { acc with identity_elim = acc.identity_elim + 1 }
          | Barrier_elim _ -> { acc with barrier_elim = acc.barrier_elim + 1 })
        acc step.obligations)
    {
      chain_steps = List.length cert;
      local_equiv = 0;
      outside_cone = 0;
      identity_elim = 0;
      barrier_elim = 0;
      permutation = 0;
    }
    cert

(* the discharged rewrite obligations, excluding the permutation pairs:
   this is what "the pass proved something" means for smoke gates *)
let total_obligations s =
  s.local_equiv + s.outside_cone + s.identity_elim + s.barrier_elim

let pp_failure ppf f =
  Format.fprintf ppf "pass %s: %s: %s" f.fail_pass f.kind f.reason;
  (match (f.before_index, f.after_index) with
  | Some i, Some j -> Format.fprintf ppf " (input #%d, output #%d)" i j
  | Some i, None -> Format.fprintf ppf " (input #%d)" i
  | None, Some j -> Format.fprintf ppf " (output #%d)" j
  | None, None -> ());
  match f.loc with
  | Some (line, col) -> Format.fprintf ppf " at %d:%d" line col
  | None -> ()

let failure_message f = Format.asprintf "%a" pp_failure f

(* ---------------------- the uniform operation view -------------------- *)

(* both circuits and plans are checked as arrays of operations *)
type op =
  | Op_gate of Circuit.Gate.t
  | Op_block of block
  | Op_other of Circuit.Instr.t

let ops_of_circuit c =
  Array.of_list
    (List.map
       (function Circuit.Instr.Gate g -> Op_gate g | i -> Op_other i)
       (Circuit.instrs c))

let ops_of_plan (p : plan) =
  Array.of_list
    (List.map
       (function
         | Block b -> Op_block b
         | Direct g -> Op_gate g
         | Fence i -> Op_other i)
       p.items)

let op_qubits = function
  | Op_gate g -> Circuit.Gate.qubits g
  | Op_block b -> Array.to_list b.qubits
  | Op_other i -> Circuit.Instr.qubits i

(* wires for the order-projection check: qubit wires, plus classical-bit
   wires (offset by [n]) for measure writes and feedback reads *)
let op_wires ~n op =
  op_qubits op
  @
  match op with
  | Op_other (Circuit.Instr.Measure { clbit; _ }) -> [ n + clbit ]
  | Op_other (Circuit.Instr.If_gate { clbits; _ }) ->
      List.map (fun b -> n + b) clbits
  | _ -> []

let cmat_bits (a : Linalg.Cmat.t) (b : Linalg.Cmat.t) =
  a.Linalg.Cmat.rows = b.Linalg.Cmat.rows
  && a.Linalg.Cmat.cols = b.Linalg.Cmat.cols
  && a.Linalg.Cmat.re = b.Linalg.Cmat.re
  && a.Linalg.Cmat.im = b.Linalg.Cmat.im

let op_equal a b =
  match (a, b) with
  | Op_gate g, Op_gate g' -> Circuit.Gate.equal g g'
  | Op_other i, Op_other i' -> i = i'
  | Op_block b, Op_block b' -> b.qubits = b'.qubits && cmat_bits b.u b'.u
  | _ -> false

let op_describe = function
  | Op_gate g -> Format.asprintf "%a" Circuit.Gate.pp g
  | Op_block b ->
      Printf.sprintf "block[%s]"
        (String.concat ","
           (List.map string_of_int (Array.to_list b.qubits)))
  | Op_other i -> Format.asprintf "%a" Circuit.Instr.pp i

(* ------------------------- local unitary algebra ---------------------- *)

(* position of global qubit [q] in the sorted support [s], or [None] *)
let pos_in (s : int array) q =
  let rec go i = if i >= Array.length s then None
    else if s.(i) = q then Some i
    else go (i + 1)
  in
  go 0

(* the gate embedded over the full support [s]: remap to local indices and
   materialize a one-gate subcircuit (this is the only place the checker
   touches the gate-matrix table, the one component shared with passes) *)
let embed_gate (s : int array) (g : Circuit.Gate.t) =
  let local q =
    match pos_in s q with
    | Some p -> p
    | None -> invalid_arg "Certify.embed_gate: qubit outside support"
  in
  let sub =
    Circuit.add
      (Circuit.Instr.Gate (Circuit.Gate.remap local g))
      (Circuit.empty (Array.length s))
  in
  Sim.Engine.unitary sub

(* a plan block embedded over [s]: block-local bit [t] is global qubit
   [b.qubits.(t)], which sits at bit [pos t] of the support space; entries
   are identity on the support bits outside the block *)
let embed_block (s : int array) (b : block) =
  let k = Array.length s in
  let m = Array.length b.qubits in
  let pos =
    Array.map
      (fun q ->
        match pos_in s q with
        | Some p -> p
        | None -> invalid_arg "Certify.embed_block: qubit outside support")
      b.qubits
  in
  let dim = 1 lsl k in
  let mask = Array.fold_left (fun acc p -> acc lor (1 lsl p)) 0 pos in
  let gather full =
    let sub = ref 0 in
    for t = 0 to m - 1 do
      sub := !sub lor (((full lsr pos.(t)) land 1) lsl t)
    done;
    !sub
  in
  let out = Linalg.Cmat.create dim dim in
  for r = 0 to dim - 1 do
    let sr = gather r in
    for c = 0 to dim - 1 do
      if r land lnot mask = c land lnot mask then
        Linalg.Cmat.set out r c (Linalg.Cmat.get b.u sr (gather c))
    done
  done;
  out

let embed_op s = function
  | Op_gate g -> embed_gate s g
  | Op_block b -> embed_block s b
  | Op_other _ -> invalid_arg "Certify.embed_op: non-unitary operation"

(* product of [ops] in program order over support [s]: later operations
   multiply on the left *)
let local_product s ops =
  List.fold_left
    (fun u op -> Linalg.Cmat.mul (embed_op s op) u)
    (Linalg.Cmat.identity (1 lsl Array.length s))
    ops

(* [a = phase * b] for some unit-modulus phase, entrywise within [eps]
   (aligned on the largest-magnitude entry of [a], like [Equiv]) *)
let mats_equal_up_to_phase ~eps a b =
  let d, _ = Linalg.Cmat.dims a in
  let d', _ = Linalg.Cmat.dims b in
  d = d'
  &&
  let best = ref (0, 0) and best_mag = ref 0. in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      let m = Linalg.Cx.norm (Linalg.Cmat.get a i j) in
      if m > !best_mag then begin
        best := (i, j);
        best_mag := m
      end
    done
  done;
  let i, j = !best in
  let za = Linalg.Cmat.get a i j and zb = Linalg.Cmat.get b i j in
  Linalg.Cx.norm zb >= eps
  &&
  let phase = Linalg.Cx.div za zb in
  Float.abs (Linalg.Cx.norm phase -. 1.) < 1e-6
  && Linalg.Cmat.equal ~eps a (Linalg.Cmat.scale phase b)

let mat_is_identity ~eps m =
  let d, d' = Linalg.Cmat.dims m in
  d = d'
  &&
  let ok = ref true in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      let want = if i = j then Linalg.Cx.one else Linalg.Cx.zero in
      if Linalg.Cx.norm (Linalg.Cx.sub (Linalg.Cmat.get m i j) want) > eps
      then ok := false
    done
  done;
  !ok

(* ----------------------------- step check ----------------------------- *)

type account = Unaccounted | Acc_mapped of int | Acc_member of int | Acc_gone

module IntSet = Set.Make (Int)

(* check one step: [input] is the step's input circuit (for lightcone
   re-derivation), [ops_in]/[ops_out] the two operation arrays, [n]/[m]
   the register sizes. Returns failures (empty = step accepted). *)
let check_step ~eps ~loc_of ~input ~n ~m ops_in ops_out (st : step) =
  let fails = ref [] in
  let fail ?bi ?ai kind fmt =
    Printf.ksprintf
      (fun reason ->
        fails :=
          {
            fail_pass = st.pass;
            kind;
            reason;
            before_index = bi;
            after_index = ai;
            loc = Option.bind bi loc_of;
          }
          :: !fails)
      fmt
  in
  let nb = Array.length ops_in and na = Array.length ops_out in
  let b_acc = Array.make nb Unaccounted in
  let a_acc = Array.make na Unaccounted in
  let groups =
    Array.of_list
      (List.filter_map
         (function
           | Local_equiv { before; after } -> Some (before, after)
           | _ -> None)
         st.obligations)
  in
  (* 1. account every index exactly once *)
  let claim_b acc i =
    if i < 0 || i >= nb then fail "coverage" "input index %d out of range" i
    else if b_acc.(i) <> Unaccounted then
      fail ~bi:i "coverage" "input instruction %d accounted for twice" i
    else b_acc.(i) <- acc
  in
  let claim_a acc j =
    if j < 0 || j >= na then fail "coverage" "output index %d out of range" j
    else if a_acc.(j) <> Unaccounted then
      fail ~ai:j "coverage" "output instruction %d accounted for twice" j
    else a_acc.(j) <- acc
  in
  List.iteri
    (fun k (i, j) ->
      claim_b (Acc_mapped k) i;
      claim_a (Acc_mapped k) j)
    st.mapped;
  Array.iteri
    (fun g (before, after) ->
      List.iter (claim_b (Acc_member g)) before;
      List.iter (claim_a (Acc_member g)) after)
    groups;
  List.iter
    (function
      | Local_equiv _ -> ()
      | Outside_cone { index } | Identity_elim { index; _ }
      | Barrier_elim { index } ->
          claim_b Acc_gone index)
    st.obligations;
  Array.iteri
    (fun i a ->
      if a = Unaccounted then
        fail ~bi:i "coverage" "input instruction %d (%s) is unaccounted for"
          i
          (op_describe ops_in.(i)))
    b_acc;
  Array.iteri
    (fun j a ->
      if a = Unaccounted then
        fail ~ai:j "coverage" "output instruction %d (%s) is unaccounted for"
          j
          (op_describe ops_out.(j)))
    a_acc;
  if !fails <> [] then List.rev !fails
  else begin
    (* 2. Permutation: order-preserving injection over equal instructions *)
    let pairs =
      List.sort (fun (i, _) (i', _) -> compare i i') st.mapped
    in
    ignore
      (List.fold_left
         (fun prev (i, j) ->
           (match prev with
           | Some (_, j') when j <= j' ->
               fail ~bi:i ~ai:j "permutation"
                 "untouched instructions reordered (output %d after %d)" j j'
           | _ -> ());
           if not (op_equal ops_in.(i) ops_out.(j)) then
             fail ~bi:i ~ai:j "permutation"
               "mapped instruction changed: %s became %s"
               (op_describe ops_in.(i))
               (op_describe ops_out.(j));
           Some (i, j))
         None pairs);
    (* 3. deletions with their own justification *)
    let keep =
      lazy
        (match input with
        | Some c -> Some (Analysis.Lightcone.union_keep c)
        | None -> None)
    in
    List.iter
      (function
        | Local_equiv _ -> ()
        | Outside_cone { index } -> (
            match Lazy.force keep with
            | None ->
                fail ~bi:index "outside_cone"
                  "lightcone cannot be re-derived for a plan input"
            | Some keep ->
                if keep.(index) then
                  fail ~bi:index "outside_cone"
                    "pruned instruction %s is inside the union lightcone"
                    (op_describe ops_in.(index)))
        | Identity_elim { index; eps = elim_eps } -> (
            match ops_in.(index) with
            | Op_gate g -> (
                match
                  Qstate.Gates.by_name g.Circuit.Gate.name
                    g.Circuit.Gate.params
                with
                | exception _ ->
                    fail ~bi:index "identity_elim"
                      "cannot resolve a matrix for dropped gate %s"
                      (op_describe ops_in.(index))
                | mat ->
                    (* a controlled identity is the identity, so the base
                       matrix decides regardless of controls *)
                    if not (mat_is_identity ~eps:(Float.max eps elim_eps) mat)
                    then
                      fail ~bi:index "identity_elim"
                        "dropped gate %s is not the identity"
                        (op_describe ops_in.(index)))
            | _ ->
                fail ~bi:index "identity_elim"
                  "identity elimination names a non-gate instruction")
        | Barrier_elim { index } -> (
            match ops_in.(index) with
            | Op_other (Circuit.Instr.Barrier _) -> ()
            | _ ->
                fail ~bi:index "barrier_elim"
                  "barrier elimination names %s, not a barrier"
                  (op_describe ops_in.(index))))
      st.obligations;
    (* 4. Local_equiv groups *)
    let group_support = Array.make (Array.length groups) [||] in
    Array.iteri
      (fun g (before, after) ->
        let bad = ref false in
        List.iter
          (fun i ->
            match ops_in.(i) with
            | Op_gate _ -> ()
            | op ->
                bad := true;
                fail ~bi:i "local_equiv"
                  "replaced group contains non-gate instruction %s"
                  (op_describe op))
          before;
        List.iter
          (fun j ->
            match ops_out.(j) with
            | Op_gate _ | Op_block _ -> ()
            | op ->
                bad := true;
                fail ~ai:j "local_equiv"
                  "replacement contains non-unitary instruction %s"
                  (op_describe op))
          after;
        if not !bad then begin
          let sup_of ops idxs =
            List.fold_left
              (fun acc i ->
                List.fold_left
                  (fun acc q -> IntSet.add q acc)
                  acc (op_qubits ops.(i)))
              IntSet.empty idxs
          in
          let s_before = sup_of ops_in before in
          let s_after = sup_of ops_out after in
          if not (IntSet.subset s_after s_before) then
            fail "local_equiv"
              "replacement touches wires outside the replaced support"
          else if IntSet.cardinal s_before > max_support then
            fail "local_equiv"
              "group support spans %d qubits, above the checker's %d-qubit \
               limit"
              (IntSet.cardinal s_before)
              max_support
          else if before = [] then
            fail "local_equiv" "group replaces no instruction"
          else begin
            let s = Array.of_list (IntSet.elements s_before) in
            group_support.(g) <- s;
            (* Instructions interleaved into either span must be
               support-disjoint from the group, or collapsing the group to
               one point would reorder non-commuting operations. One
               exception is sound: a DELETION group (product ≡ identity)
               whose members all lie strictly inside this span collapses
               away first, so its members may share wires — collapse order
               is innermost-first on span nesting, and requiring strict
               containment rejects the circular interleaving (h x h x with
               claims {0,2} and {1,3}) where no such order exists. *)
            let check_span side ops idxs acc_arr =
              match idxs with
              | [] -> ()
              | _ ->
                  let lo = List.fold_left min (List.hd idxs) idxs in
                  let hi = List.fold_left max (List.hd idxs) idxs in
                  let nested_deletion g' =
                    g' <> g
                    &&
                    let before', after' = groups.(g') in
                    after' = []
                    && List.for_all (fun j -> j > lo && j < hi) before'
                  in
                  for i = lo + 1 to hi - 1 do
                    let exempt =
                      match acc_arr.(i) with
                      | Acc_member g' -> g' = g || nested_deletion g'
                      | _ -> false
                    in
                    if not exempt then
                      let qs = op_qubits ops.(i) in
                      if List.exists (fun q -> IntSet.mem q s_before) qs then
                        fail "local_equiv"
                          "%s instruction %d (%s) interleaves the group on \
                           a shared wire"
                          side i
                          (op_describe ops.(i))
                  done
            in
            check_span "input" ops_in before b_acc;
            check_span "output" ops_out after a_acc;
            if !fails = [] then begin
              (* the product is taken in program order regardless of how the
                 certificate listed the indices — trusting the given order
                 would let a reordered list smuggle in a different product *)
              let in_order idxs = List.sort_uniq compare idxs in
              let u_before =
                local_product s
                  (List.map (fun i -> ops_in.(i)) (in_order before))
              in
              let u_after =
                local_product s
                  (List.map (fun j -> ops_out.(j)) (in_order after))
              in
              if not (mats_equal_up_to_phase ~eps u_before u_after) then
                fail "local_equiv"
                  "replaced product differs from its replacement on qubits \
                   [%s]%s"
                  (String.concat ","
                     (List.map string_of_int (Array.to_list s)))
                  (if after = [] then " (claimed identity)" else "")
            end
          end
        end)
      groups;
    (* 5. per-wire order projection (qubit wires + classical-bit wires) *)
    if !fails = [] then begin
      let wires = n + m in
      let project ops acc_arr =
        let tbl = Array.make wires [] in
        let emitted = Array.make (Array.length groups) false in
        Array.iteri
          (fun idx op ->
            match acc_arr.(idx) with
            | Acc_gone | Unaccounted -> ()
            | Acc_mapped k ->
                List.iter
                  (fun w -> tbl.(w) <- `M k :: tbl.(w))
                  (op_wires ~n op)
            | Acc_member g ->
                (* the collapsed group occupies one position; deletions
                   ([after = []]) leave no trace on either side *)
                let _, after = groups.(g) in
                if after <> [] && not emitted.(g) then begin
                  emitted.(g) <- true;
                  Array.iter
                    (fun w -> tbl.(w) <- `G g :: tbl.(w))
                    group_support.(g)
                end)
          ops;
        Array.map List.rev tbl
      in
      let pb = project ops_in b_acc and pa = project ops_out a_acc in
      for w = 0 to wires - 1 do
        if pb.(w) <> pa.(w) then
          fail "permutation"
            "instruction order changed on %s %d (the rewrite moved an \
             operation across a dependency)"
            (if w < n then "qubit" else "clbit")
            (if w < n then w else w - n)
      done
    end;
    List.rev !fails
  end

(* ----------------------------- the chain ------------------------------ *)

let chain_failure ~pass ~kind reason =
  {
    fail_pass = pass;
    kind;
    reason;
    before_index = None;
    after_index = None;
    loc = None;
  }

let target_registers = function
  | Circ c -> (Circuit.num_qubits c, Circuit.num_clbits c)
  | Plan p -> (p.num_qubits, p.num_clbits)

let target_ops = function
  | Circ c -> ops_of_circuit c
  | Plan p -> ops_of_plan p

let run_chain ?locs ~eps (cert : certificate) before (final : target) =
  let rec go step_idx (cur : target) = function
    | [] ->
        (* chain exhausted: the last output must be the caller's result *)
        let co = target_ops cur and fo = target_ops final in
        let creg = target_registers cur and freg = target_registers final in
        let same =
          creg = freg
          && Array.length co = Array.length fo
          && Array.for_all2 op_equal co fo
        in
        if same then Ok (summarize cert)
        else
          Error
            [
              chain_failure ~pass:"(chain)" ~kind:"chain"
                "certificate output does not match the transpiled result";
            ]
    | st :: rest -> (
        match cur with
        | Plan _ ->
            Error
              [
                chain_failure ~pass:st.pass ~kind:"chain"
                  "a plan cannot be transformed further, but the chain \
                   continues";
              ]
        | Circ c ->
            let n = Circuit.num_qubits c and m = Circuit.num_clbits c in
            let out_reg = target_registers st.output in
            if out_reg <> (n, m) then
              Error
                [
                  chain_failure ~pass:st.pass ~kind:"chain"
                    (Printf.sprintf
                       "step changed the register (%d,%d) -> (%d,%d)" n m
                       (fst out_reg) (snd out_reg));
                ]
            else
              let loc_of =
                match locs with
                | Some a when step_idx = 0 ->
                    fun i ->
                      if i >= 0 && i < Array.length a then Some a.(i)
                      else None
                | _ -> fun _ -> None
              in
              let fs =
                check_step ~eps ~loc_of ~input:(Some c) ~n ~m
                  (ops_of_circuit c) (target_ops st.output) st
              in
              if fs <> [] then Error fs else go (step_idx + 1) st.output rest)
  in
  go 0 (Circ before) cert

let instrumented cert run =
  Obs.Span.with_ ~name:"certify.check" @@ fun () ->
  let result = run () in
  if Obs.enabled () then begin
    let s = summarize cert in
    let add kind v =
      if v > 0 then
        Obs.Metrics.counter_add
          ~labels:[ ("kind", kind) ]
          "certify_obligations_total" v
    in
    add "local_equiv" s.local_equiv;
    add "outside_cone" s.outside_cone;
    add "identity_elim" s.identity_elim;
    add "barrier_elim" s.barrier_elim;
    add "permutation" s.permutation;
    match result with
    | Ok _ -> ()
    | Error fs ->
        Obs.Metrics.counter_add "certify_failures_total" (List.length fs)
  end;
  result

let check ?locs ?(eps = 1e-9) cert before after =
  instrumented cert (fun () -> run_chain ?locs ~eps cert before (Circ after))

let check_plan ?locs ?(eps = 1e-9) cert before plan =
  instrumented cert (fun () -> run_chain ?locs ~eps cert before (Plan plan))
