(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index) and runs a Bechamel
   micro-benchmark suite with one Test.make per table/figure kernel.

   Usage:
     dune exec bench/main.exe                  # all experiments + bechamel
     dune exec bench/main.exe -- fig7 table4   # a subset
     dune exec bench/main.exe -- --list        # list experiment names
     dune exec bench/main.exe -- --no-bechamel # skip the timing suite *)

open Morphcore

let experiments =
  [
    ("fig1b", "confidence vs tested inputs (15q quantum lock)", Exp_fig1b.run);
    ("fig5", "approximation accuracy vs N_sample (teleportation)", Exp_fig5.run);
    ("fig6", "accuracy distribution vs fitted Beta", Exp_fig6.run);
    ("fig7", "executions to find the quantum-lock bug", Exp_fig7.run);
    ("fig10", "executions to find the corrupted QRAM cell", Exp_fig10.run);
    ("fig11", "state-recovery time + accuracy of 5 benchmarks", Exp_fig11.run);
    ("fig12", "estimated confidence vs measured success", Exp_fig12.run);
    ("fig13", "pruning strategies ablation", Exp_fig13.run);
    ("fig14", "noisy accuracy vs intermediate tracepoints", Exp_fig14.run);
    ("fig15", "sampling-family ablation + solver timing", Exp_fig15.run);
    ("table2", "expressiveness vs assertion techniques", Exp_tables_expr.run);
    ("table4", "success rate + overhead vs NDD/Quito", Exp_table4.run);
    ("table6", "success rate + seconds vs Twist/Automa", Exp_table6.run);
    ("ablation", "alpha-recovery and PSD-projection ablations", Exp_ablation.run);
    ("perf", "multicore scaling + gate fusion (BENCH_results.json)", Exp_perf.run);
    ("scale", "24-32q characterization past the dense wall", Exp_perf.run_scale);
    ("cache", "warm-vs-cold incremental verification cache", Exp_cache.run);
    ("fuzz", "differential/metamorphic fuzz sweep (pass/fail counts)", Exp_fuzz.run);
    ("certify", "translation-validation obligations + checker timing", Exp_certify.run);
  ]

(* ------------------------- bechamel suite ---------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let rng = Stats.Rng.make 999 in
  (* shared fixtures, built once *)
  let lock = Benchmarks.Quantum_lock.make ~key:1 ~unexpected_key:6 3 in
  let lock_prog =
    Program.make ~input_qubits:lock.Benchmarks.Quantum_lock.key_qubits
      lock.Benchmarks.Quantum_lock.circuit
  in
  let lock_ch = Characterize.run ~rng lock_prog ~count:16 in
  let lock_approx = Approx.of_characterization lock_ch in
  let lock_assertion =
    Assertion.make ~name:"lock"
      ~assumes:[ Predicate.Diag_in_range (1, 1, 0., 0.01) ]
      ~guarantees:[ Predicate.Equals_const (2, Util.basis_dm 1 0) ]
      ()
  in
  let tele_prog =
    Program.make ~input_qubits:[ 0; 1; 2 ] (Benchmarks.Teleport.multi 3)
  in
  let tele_ch = Characterize.run ~rng ~trajectories:8 tele_prog ~count:8 in
  let tele_approx = Approx.of_characterization tele_ch in
  let probe_dm = Util.dm_of_state (Clifford.Sampling.haar_state rng 3) in
  let accs = Array.init 40 (fun _ -> Stats.Rng.beta rng ~a:3. ~b:2.) in
  let xeb5 = Benchmarks.Xeb.make rng ~n:5 ~depth:5 in
  let xeb_prog = Program.make xeb5 in
  let qnn = Benchmarks.Qnn.init rng ~num_qubits:4 ~layers:2 in
  let flowers = Benchmarks.Iris.generate rng ~count:10 in
  let dataset =
    Array.to_list
      (Array.map
         (fun f ->
           List.assoc 1
             (Sim.Engine.tracepoint_states
                (Benchmarks.Qnn.circuit qnn ~features:f.Benchmarks.Iris.features)))
         flowers)
  in
  let quad_obj =
    Optimize.Objective.make ~dim:8 (fun x ->
        -.Array.fold_left (fun acc v -> acc +. (v *. v)) 0. x)
  in
  let validate_opts = { Verify.default_options with budget = 300; restarts = 1 } in
  [
    Test.make ~name:"fig1b/confidence-model"
      (Staged.stage (fun () ->
           ignore (Confidence.estimate ~n_in:14 ~n_sample:4096 [||])));
    Test.make ~name:"fig5/probe-accuracy"
      (Staged.stage (fun () ->
           ignore (Approx.state_at tele_approx ~tracepoint:2 probe_dm)));
    Test.make ~name:"fig6/beta-fit"
      (Staged.stage (fun () -> ignore (Stats.Beta_dist.fit accs)));
    Test.make ~name:"fig7/lock-validate"
      (Staged.stage (fun () ->
           ignore
             (Verify.validate ~options:validate_opts ~rng lock_approx
                lock_assertion)));
    Test.make ~name:"fig10/decompose"
      (Staged.stage (fun () -> ignore (Approx.decompose lock_approx probe_dm)));
    Test.make ~name:"fig11a/approx"
      (Staged.stage (fun () ->
           ignore (Approx.state_at lock_approx ~tracepoint:2 probe_dm)));
    Test.make ~name:"fig11a/simulate"
      (Staged.stage (fun () ->
           ignore (Program.run_traces lock_prog ~input:(Qstate.Statevec.basis 3 5))));
    Test.make ~name:"fig11b/characterize-4"
      (Staged.stage (fun () -> ignore (Characterize.run ~rng lock_prog ~count:4)));
    Test.make ~name:"fig12/beta-confidence"
      (Staged.stage (fun () ->
           ignore (Confidence.estimate ~n_in:4 ~n_sample:16 accs)));
    Test.make ~name:"fig13/strategy-adapt"
      (Staged.stage (fun () -> ignore (Prune.strategy_adapt dataset)));
    Test.make ~name:"fig14/psd-project"
      (Staged.stage (fun () -> ignore (Linalg.Eig.project_psd probe_dm)));
    Test.make ~name:"fig15a/clifford-prep"
      (Staged.stage (fun () ->
           ignore
             (Clifford.Sampling.state rng Clifford.Sampling.Clifford 4 ~index:0)));
    Test.make ~name:"fig15b/qp-solver"
      (Staged.stage (fun () ->
           ignore (Optimize.Solvers.qp ~iters:10 ~restarts:1 rng quad_obj)));
    Test.make ~name:"table2/predicate-eval"
      (Staged.stage (fun () ->
           ignore (Predicate.eval (Predicate.Is_pure 0) (fun _ -> probe_dm))));
    Test.make ~name:"table4/quito-check"
      (Staged.stage (fun () ->
           ignore
             (Baselines.Quito.check ~rng ~shots:100 ~tests:1 ~reference:lock_prog
                ~candidate:lock_prog ())));
    Test.make ~name:"table6/twist-purity"
      (Staged.stage (fun () ->
           ignore (Baselines.Twist.purity_vector xeb_prog ~input:0)));
    Test.make ~name:"table6/automa-sparse"
      (Staged.stage (fun () ->
           let st = Sim.Sparse.basis 5 0 in
           List.iter
             (function
               | Circuit.Instr.Gate g -> Sim.Sparse.apply_gate g st | _ -> ())
             (Circuit.instrs xeb5)));
  ]

let run_bechamel () =
  let open Bechamel in
  Util.header "Bechamel micro-benchmarks (one kernel per table/figure)";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"morphqpv" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, ns) ->
      if ns >= 1e6 then Util.row "%-42s %10.3f ms/run" name (ns /. 1e6)
      else Util.row "%-42s %10.1f ns/run" name ns)
    (List.sort compare !rows)

(* --------------------------- regression gate -------------------------- *)

(* [check [PREV CUR]]: compare the last two results files (default: the
   rotation pair written by [Util.write_bench_json]) and fail on
   statistically significant slowdowns or counter drifts. Exit codes:
   0 clean, 1 regression, 2 usage/missing files. *)
let run_check args =
  let prev_file, cur_file =
    match args with
    | [] -> (Util.prev_path "BENCH_results.json", "BENCH_results.json")
    | [ p; c ] -> (p, c)
    | _ ->
        prerr_endline "usage: bench check [PREV.json CUR.json]";
        exit 2
  in
  match (Testkit.Benchgate.load prev_file, Testkit.Benchgate.load cur_file) with
  | Error e, _ | _, Error e ->
      Printf.eprintf
        "bench check: %s\n(run the bench twice so both %s and %s exist)\n" e
        prev_file cur_file;
      exit 2
  | Ok prev, Ok cur ->
      let report = Testkit.Benchgate.compare_runs ~prev cur in
      Format.printf "%a" Testkit.Benchgate.pp_report report;
      exit (if report.Testkit.Benchgate.regressions = [] then 0 else 1)

(* ------------------------------ driver ------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
  | "check" :: rest -> run_check rest
  | _ -> ());
  if List.mem "--list" args then
    List.iter (fun (name, doc, _) -> Printf.printf "%-10s %s\n" name doc) experiments
  else begin
    let with_bechamel = not (List.mem "--no-bechamel" args) in
    let selected =
      List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
    in
    let to_run =
      if selected = [] then experiments
      else
        List.filter_map
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) experiments with
            | Some e -> Some e
            | None ->
                if name <> "bechamel" then
                  Printf.eprintf "unknown experiment %S (try --list)\n" name;
                None)
          selected
    in
    (* observability is on by default here so every experiment row in
       BENCH_results.json carries its counter deltas (gates, shots,
       MACs); MORPHQPV_OBS in the environment still wins *)
    if Sys.getenv_opt "MORPHQPV_OBS" = None then Obs.configure ~enabled:true;
    let t0 = Unix.gettimeofday () in
    let domains = Parallel.Pool.env_domains () in
    List.iter
      (fun (name, _, run) ->
        let (), dt =
          Obs.Span.with_ ~name:("exp." ^ name) (fun () -> Util.time run)
        in
        Util.record name ~seconds:dt ~domains ();
        Printf.printf "[%s finished in %.1fs]\n%!" name dt)
      to_run;
    if with_bechamel && (selected = [] || List.mem "bechamel" selected) then
      run_bechamel ();
    Util.write_bench_json "BENCH_results.json";
    Printf.printf "\nAll experiments done in %.1fs\n%!" (Unix.gettimeofday () -. t0)
  end
