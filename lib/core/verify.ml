open Linalg

type verdict =
  | Verified of { confidence : Confidence.t; max_objective : float }
  | Violated of {
      counterexample : Cmat.t;
      alpha : float array;
      objective : float;
    }

type options = {
  solver : Optimize.Solvers.method_;
  budget : int;
  epsilon_obj : float;
  epsilon_acc : float;
  recovery : Approx.recovery;
  projection : [ `Trace | `Psd ];
  restarts : int;
}

let default_options =
  {
    solver = `Qp;
    budget = 6_000;
    epsilon_obj = 0.05;
    epsilon_acc = 0.5;
    recovery = `Least_squares;
    projection = `Psd;
    restarts = 2;
  }

(* The validation problem over alpha. One memoized evaluator serves the
   objective, every constraint and their gradients, so a point costs one
   forward pass however many of them read it. An objective gets an exact
   gradient when every predicate it reads has an adjoint; the max over
   several guarantees is differentiated through its first maximizer. *)
let problem ?(options = default_options) approx assertion =
  let dim = Approx.n_sample approx in
  let eval = Approx.evaluator ~projection:options.projection approx in
  let objective ~value preds =
    let vjps = List.filter_map Predicate.vjp preds in
    let grad alpha =
      let p = eval alpha in
      let env = Approx.point_state p in
      let _, active =
        List.fold_left2
          (fun ((best, _) as acc) pred vjp ->
            let v = Predicate.eval pred env in
            if v > best then (v, vjp) else acc)
          (neg_infinity, List.hd vjps)
          preds vjps
      in
      Approx.point_vjp p (active env)
    in
    let grad =
      if vjps <> [] && List.compare_lengths vjps preds = 0 then Some grad
      else None
    in
    Optimize.Objective.make ~dim ?grad (fun alpha ->
        value (Approx.point_state (eval alpha)))
  in
  let guarantees = assertion.Assertion.guarantees in
  {
    Optimize.Constrained.objective =
      objective guarantees ~value:(fun env ->
          List.fold_left
            (fun acc p -> Float.max acc (Predicate.eval p env))
            neg_infinity guarantees);
    constraints =
      List.map
        (fun p -> objective [ p ] ~value:(Predicate.eval p))
        assertion.Assertion.assumes;
  }

(* dominant eigenvector of a density matrix, as a pure-state input *)
let dominant_eigenvector rho =
  let d, _ = Cmat.dims rho in
  let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
  let n = log2 0 d in
  let w, v = Eig.hermitian rho in
  let top = Array.length w - 1 in
  Qstate.Statevec.of_cvec n (Cvec.normalize (Cmat.col v top))

let nearest_basis_state rho =
  let d, _ = Cmat.dims rho in
  let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
  let n = log2 0 d in
  let best = ref 0 and best_p = ref neg_infinity in
  for i = 0 to d - 1 do
    let p = Cx.re (Cmat.get rho i i) in
    if p > !best_p then begin
      best := i;
      best_p := p
    end
  done;
  Qstate.Statevec.basis n !best

let confirmed_violation ?rng confirm assertion counterexample =
  match confirm with
  | None -> true
  | Some program ->
      let candidates =
        [ dominant_eigenvector counterexample; nearest_basis_state counterexample ]
      in
      List.exists
        (fun input ->
          not (
            let traces = Program.run_traces ?rng program ~input in
            let env tp =
              match List.assoc_opt tp traces with
              | Some m -> m
              | None -> invalid_arg "Verify: assertion mentions unknown tracepoint"
            in
            Assertion.holds ~tol:0.02 assertion env))
        candidates

let validate_direct ?(options = default_options) ?rng ?confirm approx assertion =
  Obs.Span.with_ ~name:"verify.validate" @@ fun () ->
  if Obs.enabled () then
    Obs.Metrics.counter_add "verify_restarts_total" (max 1 options.restarts);
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 11 in
  let dim = Approx.n_sample approx in
  let problem = problem ~options approx assertion in
  let best_violation = ref None and best_clean = ref None in
  (try
     for _ = 1 to max 1 options.restarts do
       let sol =
         Optimize.Constrained.maximize ~budget:(options.budget / max 1 options.restarts)
           ~method_:options.solver rng problem
       in
       if
         sol.Optimize.Constrained.feasible
         && sol.Optimize.Constrained.value > options.epsilon_obj
       then begin
         let p =
           Approx.point ~projection:options.projection approx
             sol.Optimize.Constrained.x
         in
         let counterexample = Eig.project_psd (Approx.point_state p 0) in
         if confirmed_violation ~rng confirm assertion counterexample then begin
           best_violation :=
             Some
               (Violated
                  {
                    counterexample;
                    alpha = sol.Optimize.Constrained.x;
                    objective = sol.Optimize.Constrained.value;
                  });
           raise Exit
         end
       end
       else begin
         match !best_clean with
         | Some v when v >= sol.Optimize.Constrained.value -> ()
         | _ -> best_clean := Some sol.Optimize.Constrained.value
       end
     done
   with Exit -> ());
  match !best_violation with
  | Some v -> v
  | None ->
      let confidence =
        Confidence.estimate ~epsilon:options.epsilon_acc ~n_in:approx.Approx.n_in
          ~n_sample:dim [||]
      in
      Verified
        {
          confidence;
          max_objective = Option.value ~default:neg_infinity !best_clean;
        }

(* Verdict memo: the key folds in everything the verdict is a function
   of — the characterized relation (the approximation's data fields; its
   lazy basis/solver are derived from them), the assertion, the solver
   options, the entry generator fingerprint and the confirmation program.
   Unlike the characterization layer, a hit does NOT replay the solver's
   generator consumption (that would cost the solve being skipped), so
   callers memoizing verdicts should give [validate] a generator whose
   continuation they don't rely on — every orchestration layer here
   (CLI, server, bench) uses it as the final consumer. *)
let validate ?(options = default_options) ?rng ?confirm ?cache approx assertion =
  match cache with
  | None -> validate_direct ~options ?rng ?confirm approx assertion
  | Some cache -> (
      let rng = match rng with Some r -> r | None -> Stats.Rng.make 11 in
      let confirm_fp =
        match confirm with
        | None -> "none"
        | Some p ->
            Cache.Canon.exact_bytes p.Program.circuit
            ^ Marshal.to_string p.Program.input_qubits []
      in
      let key =
        Cache.Canon.digest
          (String.concat "\x00"
             [
               "verdict-v2";
               Cache.Canon.digest
                 (Marshal.to_string
                    ( approx.Approx.n_in,
                      approx.Approx.inputs,
                      approx.Approx.outputs )
                    []);
               Marshal.to_string assertion [];
               Marshal.to_string options [];
               string_of_int (Stats.Rng.fingerprint rng);
               confirm_fp;
             ])
      in
      match Cache.find_value cache ~ns:"verdict" key with
      | Some v -> v
      | None ->
          let v = validate_direct ~options ~rng ?confirm approx assertion in
          Cache.store_value cache ~ns:"verdict" key v;
          v)

(* Like [validate], but also returns the span-tree summary of the
   verification's own work (solver spans included). Kept separate so the
   [verdict] type — and every pattern match on it — stays unchanged. *)
let validate_traced ?options ?rng ?confirm ?cache approx assertion =
  let since = Obs.Span.mark () in
  let verdict = validate ?options ?rng ?confirm ?cache approx assertion in
  (verdict, Obs.Span.summary ~since ())

let check_on_program ?rng ?tol program assertion ~input =
  let traces = Program.run_traces ?rng program ~input in
  let env tp =
    match List.assoc_opt tp traces with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Verify.check_on_program: no tracepoint %d" tp)
  in
  Assertion.holds ?tol assertion env

let minimize_counterexample ?rng ?(tol = 0.02) program assertion
    ~counterexample =
  let d, _ = Cmat.dims counterexample in
  let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
  let n = log2 0 d in
  let violates input =
    let traces = Program.run_traces ?rng program ~input in
    let env tp =
      match List.assoc_opt tp traces with
      | Some m -> m
      | None -> invalid_arg "Verify.minimize_counterexample: unknown tracepoint"
    in
    not (Assertion.holds ~tol assertion env)
  in
  (* candidate basis states, heaviest first *)
  let weights =
    List.init d (fun k -> (k, Cx.re (Cmat.get counterexample k k)))
    |> List.filter (fun (_, w) -> w > 0.02)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let basis_candidates = List.map (fun (k, _) -> Qstate.Statevec.basis n k) weights in
  let dominant = dominant_eigenvector counterexample in
  match List.find_opt violates basis_candidates with
  | Some simple -> simple
  | None -> dominant

(* -------------- distribution-level assertions on counts --------------- *)

type counts_result = {
  counts_hold : bool;
  test : Stats.Tests.result;
  shots_used : int;
  early_stop : bool;
}

(* contamination rate of the SPRT alternative: H1 mixes a fraction
   [contamination] of noise uniform over the FULL basis-state space into
   the expected distribution, making the sequential test a valid
   simple-vs-simple SPRT. Uniform over the whole space (not just the
   listed categories) keeps H1 distinct from H0 even when the expected
   distribution is itself uniform over its categories. *)
let contamination = 0.2

let seq_counters ~cap ~used ~early =
  if Obs.enabled () then begin
    if cap > used then
      Obs.Metrics.counter_add "verify_shots_saved_total" (cap - used);
    if early then Obs.Metrics.counter_add "verify_early_stop_total" 1
  end;
  if early then
    Obs.Log.emit Obs.Log.Info "verify.early_stop"
      [
        ("cap", Obs.Log.I cap);
        ("shots", Obs.Log.I used);
        ("saved", Obs.Log.I (cap - used));
      ]

let check_counts ?(budget = `Fixed 2048) ?rng ?noise program
    (dist : Assertion.Dist.t) ~input =
  Obs.Span.with_ ~name:"verify.check_counts" @@ fun () ->
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 17 in
  let initial = Program.embed program input in
  let circuit = program.Program.circuit in
  let expected = dist.Assertion.Dist.expected in
  let other = Assertion.Dist.other_mass dist in
  let m = List.length expected in
  (* category layout: one per listed basis index, plus a pooled "other"
     bucket when the expectation leaves it mass *)
  let has_other = other > 1e-12 in
  let k_cat = m + if has_other then 1 else 0 in
  let probs =
    Array.init k_cat (fun i ->
        if i < m then snd (List.nth expected i) else other)
  in
  let index_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i (k, _) -> Hashtbl.add tbl k i) expected;
    fun k -> match Hashtbl.find_opt tbl k with Some i -> i | None -> m
  in
  let counts = Array.make (m + 1) 0 in
  let draw shots =
    List.iter
      (fun (k, c) -> counts.(index_of k) <- counts.(index_of k) + c)
      (Sim.Engine.sample_counts ~rng ?noise ~initial ~shots circuit)
  in
  let total () = Array.fold_left ( + ) 0 counts in
  (* final fixed-budget decision rule on whatever counts were taken; the
     same rule closes the sequential path at max_shots, so the two
     budgets agree by construction once the cap is reached *)
  let decide_fixed significance =
    let s = total () in
    let sf = float_of_int s in
    if counts.(m) > 0 && not has_other then
      (* outcome the expectation gave zero mass: certain violation *)
      ( false,
        {
          Stats.Tests.statistic = infinity;
          pvalue = 0.;
          df = float_of_int (k_cat - 1);
        } )
    else if k_cat < 2 then
      (* point-mass expectation matched exactly *)
      (true, { Stats.Tests.statistic = 0.; pvalue = 1.; df = 0. })
    else begin
      let observed =
        Array.init k_cat (fun i -> float_of_int counts.(i))
      in
      let expected_counts = Array.map (fun p -> Float.max (p *. sf) 1e-9) probs in
      let test = Stats.Tests.chi2_gof ~expected:expected_counts observed in
      (test.Stats.Tests.pvalue >= significance, test)
    end
  in
  match budget with
  | `Fixed shots ->
      if shots <= 0 then invalid_arg "Verify.check_counts: non-positive shots";
      draw shots;
      let holds, test = decide_fixed dist.Assertion.Dist.significance in
      { counts_hold = holds; test; shots_used = shots; early_stop = false }
  | `Sequential { Stats.Tests.alpha; beta; max_shots = cap } ->
      if cap <= 0 then invalid_arg "Verify.check_counts: non-positive max_shots";
      (* per-category LLR of H1 = (1-delta) expected + delta uniform over
         all 2^n outcomes against H0 = expected; a category H0 calls
         impossible forces an immediate reject when observed *)
      let d_f = Float.pow 2. (float_of_int (Circuit.num_qubits circuit)) in
      let q1 =
        Array.init k_cat (fun i ->
            let leak =
              if i < m then contamination /. d_f
              else contamination *. (d_f -. float_of_int m) /. d_f
            in
            ((1. -. contamination) *. probs.(i)) +. leak)
      in
      let llr_cat =
        Array.init k_cat (fun i ->
            if probs.(i) <= 0. then infinity else log (q1.(i) /. probs.(i)))
      in
      let sprt = ref (Stats.Sprt.make ~alpha ~beta) in
      let block = max 64 (cap / 32) in
      let verdict = ref Stats.Sprt.Continue in
      let prev = Array.make (m + 1) 0 in
      (* Haybittle–Peto-style stringent interim boundary: the SPRT's
         simple contamination alternative cannot represent every
         deviation direction, so each interim look also rejects outright
         on an overwhelming chi-square — barely inflating the overall
         type-I error while catching deviations the mixture misses *)
      let interim = Float.min 0.001 (alpha /. 10.) in
      while !verdict = Stats.Sprt.Continue && total () < cap do
        let b = min block (cap - total ()) in
        Array.blit counts 0 prev 0 (m + 1);
        draw b;
        (* fold the block's per-category increments into the SPRT *)
        let s = ref !sprt in
        for i = 0 to m do
          let dc = counts.(i) - prev.(i) in
          if dc > 0 then
            if i = m && not has_other then
              (* impossible outcome observed: force a reject *)
              s := Stats.Sprt.observe_llr !s infinity
            else
              s := Stats.Sprt.observe_llr !s (float_of_int dc *. llr_cat.(i))
        done;
        sprt := !s;
        let interim_holds, _ = decide_fixed interim in
        verdict :=
          (if not interim_holds then Stats.Sprt.Reject_h0
           else Stats.Sprt.decide !s)
      done;
      let used = total () in
      let early = used < cap in
      seq_counters ~cap ~used ~early;
      let fixed_holds, test = decide_fixed alpha in
      let holds =
        match !verdict with
        | Stats.Sprt.Accept_h0 -> true
        | Stats.Sprt.Reject_h0 -> false
        | Stats.Sprt.Continue -> fixed_holds
      in
      { counts_hold = holds; test; shots_used = used; early_stop = early }

(* ------------------- sequential assertion probing ---------------------- *)

type probe_result = {
  probe_holds : bool;
  trials : int;
  failures : int;
  probe_early_stop : bool;
  counterexample_input : Qstate.Statevec.t option;
}

(* Bernoulli SPRT hypotheses on the per-input violation rate: H0 "the
   assertion effectively holds" (violation rate <= 1%) against H1
   "broken" (>= 25%). With the default alpha = beta = 0.05 boundaries a
   single observed violation crosses the reject line immediately, and
   ~14 consecutive passes cross the accept line. *)
let probe_p0 = 0.01
let probe_p1 = 0.25

let probe_assertion ?rng ?tol ?(budget = `Fixed 32) program assertion =
  Obs.Span.with_ ~name:"verify.probe_assertion" @@ fun () ->
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 29 in
  let k = Program.num_input_qubits program in
  let failures = ref 0 and counterexample = ref None in
  let trial () =
    let input = Clifford.Sampling.haar_state rng k in
    let ok = check_on_program ~rng ?tol program assertion ~input in
    if not ok then begin
      incr failures;
      if !counterexample = None then counterexample := Some input
    end;
    not ok
  in
  match budget with
  | `Fixed n ->
      if n <= 0 then invalid_arg "Verify.probe_assertion: non-positive trials";
      for _ = 1 to n do
        ignore (trial ())
      done;
      {
        probe_holds = !failures = 0;
        trials = n;
        failures = !failures;
        probe_early_stop = false;
        counterexample_input = !counterexample;
      }
  | `Sequential { Stats.Tests.alpha; beta; max_shots = cap } ->
      if cap <= 0 then
        invalid_arg "Verify.probe_assertion: non-positive max_shots";
      let sprt = ref (Stats.Sprt.make ~alpha ~beta) in
      let trials = ref 0 in
      let verdict = ref Stats.Sprt.Continue in
      while !verdict = Stats.Sprt.Continue && !trials < cap do
        let violated = trial () in
        incr trials;
        sprt :=
          Stats.Sprt.observe_bernoulli ~p0:probe_p0 ~p1:probe_p1 !sprt violated;
        verdict := Stats.Sprt.decide !sprt
      done;
      let early = !trials < cap in
      seq_counters ~cap ~used:!trials ~early;
      let holds =
        match !verdict with
        | Stats.Sprt.Accept_h0 -> true
        | Stats.Sprt.Reject_h0 -> false
        | Stats.Sprt.Continue -> !failures = 0
      in
      {
        probe_holds = holds;
        trials = !trials;
        failures = !failures;
        probe_early_stop = early;
        counterexample_input = !counterexample;
      }

let probe_accuracies ?rng ?(count = 20) approx program ~tracepoint =
  Obs.Span.with_ ~name:"verify.probe_accuracies" @@ fun () ->
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 23 in
  let k = Program.num_input_qubits program in
  Array.init count (fun _ ->
      let input = Clifford.Sampling.haar_state rng k in
      let truth =
        List.assoc tracepoint (Program.run_traces ~rng program ~input)
      in
      let v = Qstate.Statevec.to_cvec input in
      Approx.accuracy (Approx.state_at approx ~tracepoint (Cmat.outer v v)) truth)

(* ------------------- certified transpilation (MQ021) ------------------- *)

type certify_report = {
  certified : bool;
  cert_summary : Transpile.Certify.summary;
  cert_failures : Transpile.Certify.failure list;
  cert_plan : Transpile.Certify.plan;
}

let certify_transpile ?locs circuit =
  let optimized, opt_steps = Transpile.Passes.optimize_cert circuit in
  let pruned, prune_step = Transpile.Passes.prune_lightcone_cert optimized in
  let plan, seg_step = Transpile.Segments.compile_cert pruned in
  let cert = opt_steps @ [ prune_step; seg_step ] in
  match Transpile.Certify.check_plan ?locs cert circuit plan with
  | Ok summary ->
      {
        certified = true;
        cert_summary = summary;
        cert_failures = [];
        cert_plan = plan;
      }
  | Error failures ->
      {
        certified = false;
        cert_summary = Transpile.Certify.summarize cert;
        cert_failures = failures;
        cert_plan = plan;
      }
