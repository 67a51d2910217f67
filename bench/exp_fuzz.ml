(* Fuzz sweep: run every differential oracle and metamorphic property of
   morphqpv.testkit over MORPHQPV_FUZZ_N random circuits each (default 100)
   and record pass/fail counts into BENCH_results.json, so the correctness
   trajectory is tracked across PRs alongside the perf numbers.

   Unlike `dune runtest` (which stops at the first failure and shrinks),
   the sweep runs every case and reports totals; the first failing circuit
   per oracle is printed for reproduction. *)

open Testkit

let fuzz_n () =
  match Sys.getenv_opt "MORPHQPV_FUZZ_N" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
      | Some v when v > 0 -> v
      | _ -> 100)
  | None -> 100

(* (name, generator, property over the generated sketch) *)
let checks () =
  [
    ("statevec-vs-dm", Gen.gen_pure (), Oracle.statevec_vs_dm);
    ("statevec-vs-tableau", Gen.gen_clifford (), Oracle.statevec_vs_tableau);
    ( "statevec-vs-sparse",
      Gen.gen_pure (),
      fun c -> Oracle.statevec_vs_sparse c );
    ("qasm-roundtrip", Gen.gen_program (), Oracle.qasm_roundtrip);
    ("prune-preserves-traces", Gen.gen_pure (), Oracle.prune_preserves_traces);
    ("lightcone-restrict", Gen.gen_pure (), Oracle.lightcone_restrict_matches);
    ("stabilizer-traces", Gen.gen_clifford (), Oracle.stabilizer_traces_agree);
    ("sparse-traces", Gen.gen_pure (), Oracle.sparse_vs_statevec);
    ("rank-traces", Gen.gen_near_clifford (), Oracle.rank_vs_statevec);
    ( "characterize-matches-reference",
      Gen.gen_program (),
      fun c -> Oracle.characterize_matches_reference c );
    ( "characterize-scale-route",
      Gen.gen_near_clifford (),
      fun c -> Oracle.characterize_scale_route c );
    ("obs-transparent", Gen.gen_program (), Oracle.obs_transparent);
    ( "server-obs-transparent",
      Gen.gen_program (),
      Oracle.server_obs_transparent );
    ( "cache-transparent",
      Gen.gen_program (),
      fun c -> Oracle.cache_transparent c );
    ( "sequential-vs-fixed",
      Gen.gen_pure (),
      Oracle.sequential_vs_fixed_verdict );
    ("pvalue-uniform", Gen.gen_pure (), Oracle.pvalue_uniform_under_null);
    ( "certified-passes-pure",
      Gen.gen_pure (),
      Oracle.certified_pass_sound );
    ( "certified-passes-nearclif",
      Gen.gen_near_clifford (),
      Oracle.certified_pass_sound );
    ( "certified-passes-programs",
      Gen.gen_program (),
      Oracle.certified_pass_sound );
    ( "certify-mutants-rejected",
      Gen.gen_program (),
      Oracle.certified_mutants_rejected );
    ("adjoint-cancels", Gen.gen_pure (), Metamorph.adjoint_cancels);
    ("global-phase", Gen.gen_pure (), Metamorph.global_phase_invariant);
    ("fused-traces", Gen.gen_pure (), Metamorph.fused_traces_agree);
  ]
  @ List.map
      (fun (name, pass) ->
        ( "transpile-" ^ name,
          Gen.gen_pure (),
          fun c -> Oracle.transpile_preserves pass c ))
      Oracle.all_passes

let run () =
  let n = fuzz_n () in
  let seed = Config.seed () in
  Util.header
    (Printf.sprintf "Fuzz sweep: %d circuits per oracle (seed %d)" n seed);
  let domains = Parallel.Pool.env_domains () in
  let total_failed = ref 0 in
  List.iter
    (fun (name, gen, prop) ->
      let rand = Random.State.make [| seed |] in
      let circs = QCheck.Gen.generate ~rand ~n gen in
      let failed = ref 0 and first_failure = ref None in
      let (), dt =
        Util.time (fun () ->
            List.iter
              (fun c ->
                let ok = try prop c with _ -> false in
                if not ok then begin
                  incr failed;
                  if !first_failure = None then first_failure := Some c
                end)
              circs)
      in
      let passed = n - !failed in
      total_failed := !total_failed + !failed;
      Util.record ("fuzz/" ^ name) ~seconds:dt ~cases:(passed, !failed)
        ~domains ();
      Util.row "%-28s %4d/%-4d passed  (%.2fs)" name passed n dt;
      match !first_failure with
      | Some c ->
          Util.row "  first failing circuit:";
          Util.row "%s" (Gen.print_circ c)
      | None -> ())
    (checks ());
  (* lint-diagnostic census over the same program distribution: how many
     random programs the linter flags at all (any severity). Recorded as
     (clean, flagged) so the diagnostic rate is tracked across PRs — a
     sudden jump means either the generator or a lint check drifted. *)
  let rand = Random.State.make [| seed |] in
  let circs = QCheck.Gen.generate ~rand ~n (Gen.gen_program ()) in
  let flagged = ref 0 and diagnostics = ref 0 in
  let (), dt =
    Util.time (fun () ->
        List.iter
          (fun c ->
            match Analysis.Lint.check (Gen.build c) with
            | [] -> ()
            | ds ->
                incr flagged;
                diagnostics := !diagnostics + List.length ds)
          circs)
  in
  Util.record "fuzz/lint-diagnostics" ~seconds:dt
    ~cases:(n - !flagged, !flagged) ~domains ();
  Util.row "%-28s %4d/%-4d clean   (%d diagnostics, %.2fs)" "lint-diagnostics"
    (n - !flagged) n !diagnostics dt;
  if !total_failed = 0 then Util.row "all oracles agree on every circuit"
  else Util.row "TOTAL FAILURES: %d (repro: MORPHQPV_SEED=%d)" !total_failed seed
