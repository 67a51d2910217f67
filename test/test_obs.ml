(* Observability substrate: span nesting and ordering, histogram bucket
   edges, counter determinism across pool domain counts, the Chrome
   trace_event JSONL golden, the disabled-is-noop contract, and the
   obs_transparent oracle (enabling observability never perturbs engine
   outputs). *)

open Morphcore
open Testkit

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

(* Every unit test runs against a clean, enabled registry and restores
   the binary-wide default (disabled, wall clock) on the way out, so test
   order never leaks state. *)
let with_obs f () =
  Obs.configure ~enabled:true;
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock_for_testing None;
      Obs.Span.reset ();
      Obs.Metrics.reset ();
      Obs.configure ~enabled:false)
    f

(* a deterministic clock ticking 1 microsecond per read *)
let tick_clock () =
  let t = ref (-1.) in
  fun () ->
    t := !t +. 1.;
    !t

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  let since = Obs.Span.mark () in
  let r =
    Obs.Span.with_ ~name:"outer" @@ fun () ->
    ignore (Obs.Span.with_ ~name:"inner" (fun () -> 1));
    ignore (Obs.Span.with_ ~name:"inner" (fun () -> 2));
    42
  in
  Alcotest.(check int) "with_ returns f's value" 42 r;
  let evs = Obs.Span.events ~since () in
  let tag (ev : Obs.Span.event) =
    (ev.name, match ev.ph with Obs.Span.B -> "B" | Obs.Span.E -> "E")
  in
  Alcotest.(check (list (pair string string)))
    "B/E bracketing order"
    [
      ("outer", "B");
      ("inner", "B");
      ("inner", "E");
      ("inner", "B");
      ("inner", "E");
      ("outer", "E");
    ]
    (List.map tag evs);
  (* seqs are the total order *)
  let seqs = List.map (fun (ev : Obs.Span.event) -> ev.seq) evs in
  Alcotest.(check bool) "seq strictly increasing" true
    (List.sort compare seqs = seqs && List.sort_uniq compare seqs = seqs);
  (* parent links: both inner spans hang off outer; outer is a root *)
  let outer_b = List.hd evs in
  Alcotest.(check int) "outer is a root" (-1) outer_b.Obs.Span.parent;
  List.iter
    (fun (ev : Obs.Span.event) ->
      if ev.name = "inner" then
        Alcotest.(check int)
          ("inner parent (" ^ string_of_int ev.seq ^ ")")
          outer_b.Obs.Span.span ev.parent)
    evs

let test_span_closes_on_raise () =
  let since = Obs.Span.mark () in
  (try
     Obs.Span.with_ ~name:"boom" (fun () -> failwith "expected") |> ignore
   with Failure _ -> ());
  let evs = Obs.Span.events ~since () in
  Alcotest.(check int) "B and E both recorded" 2 (List.length evs);
  Alcotest.(check bool) "last is E" true
    ((List.nth evs 1).Obs.Span.ph = Obs.Span.E);
  (* the stack unwound: a sibling span opened next is again a root *)
  let r = Obs.Span.with_ ~name:"after" (fun () -> Obs.Span.events ~since ()) in
  let after_b =
    List.find (fun (ev : Obs.Span.event) -> ev.name = "after") r
  in
  Alcotest.(check int) "sibling after raise is a root" (-1)
    after_b.Obs.Span.parent

let test_span_summary () =
  Obs.set_clock_for_testing (Some (tick_clock ()));
  let since = Obs.Span.mark () in
  ( Obs.Span.with_ ~name:"outer" @@ fun () ->
    ignore (Obs.Span.with_ ~name:"inner" (fun () -> ()));
    ignore (Obs.Span.with_ ~name:"inner" (fun () -> ())) );
  (* ticks: outer B=0, inner B=1 E=2, inner B=3 E=4, outer E=5
     -> inner total 2us over 2 runs, outer total 5us over 1 run *)
  match Obs.Span.summary ~since () with
  | [ a; b ] ->
      Alcotest.(check string) "slowest first" "outer" a.Obs.Span.name;
      Alcotest.(check int) "outer count" 1 a.Obs.Span.count;
      Alcotest.(check (float 1e-12)) "outer total" 5e-6 a.Obs.Span.total_s;
      Alcotest.(check string) "then inner" "inner" b.Obs.Span.name;
      Alcotest.(check int) "inner count" 2 b.Obs.Span.count;
      Alcotest.(check (float 1e-12)) "inner total" 2e-6 b.Obs.Span.total_s
  | rows -> Alcotest.failf "expected 2 summary rows, got %d" (List.length rows)

let test_span_ring_bound () =
  (* the ring keeps a bounded prefix and counts the overflow *)
  let before = Obs.Span.dropped () in
  for _ = 1 to 40_000 do
    Obs.Span.with_ ~name:"spin" (fun () -> ())
  done;
  Alcotest.(check bool) "overflow counted" true (Obs.Span.dropped () > before);
  Alcotest.(check int) "ring holds its capacity" 65536
    (List.length (Obs.Span.events ()));
  Obs.Span.reset ();
  Alcotest.(check int) "reset clears dropped" 0 (Obs.Span.dropped ())

(* ---------------- metrics ---------------- *)

let find_hist name =
  let entries = Obs.Metrics.snapshot () in
  match
    List.find_opt (fun (e : Obs.Metrics.entry) -> e.name = name) entries
  with
  | Some { data = Obs.Metrics.Histogram h; _ } -> h
  | _ -> Alcotest.failf "histogram %s missing from snapshot" name

let test_histogram_edges () =
  let buckets = [| 1.; 2.; 4. |] in
  (* upper edges are inclusive: v <= edge lands in that bucket *)
  List.iter
    (fun v -> Obs.Metrics.observe ~buckets "h" v)
    [ 1.0; 1.5; 2.0; 4.0; 4.1 ];
  let h = find_hist "h" in
  Alcotest.(check (array (float 0.))) "bounds kept" buckets h.Obs.Metrics.hbounds;
  Alcotest.(check (array int)) "per-bucket counts (last is +inf)"
    [| 1; 2; 1; 1 |] h.Obs.Metrics.hcounts;
  Alcotest.(check (float 1e-9)) "sum" 12.6 h.Obs.Metrics.hsum

let test_counter_roundtrip () =
  Obs.Metrics.counter_add ~labels:[ ("kind", "h") ] "g_total" 2;
  Obs.Metrics.counter_add ~labels:[ ("kind", "h") ] "g_total" 3;
  Obs.Metrics.counter_add ~labels:[ ("kind", "cx") ] "g_total" 1;
  Alcotest.(check (option int)) "labelled counter accumulates" (Some 5)
    (Obs.Metrics.counter_value ~labels:[ ("kind", "h") ] "g_total");
  (* label order must not matter for identity *)
  Obs.Metrics.counter_add ~labels:[ ("b", "2"); ("a", "1") ] "multi" 1;
  Alcotest.(check (option int)) "labels are canonicalized" (Some 1)
    (Obs.Metrics.counter_value ~labels:[ ("a", "1"); ("b", "2") ] "multi");
  Alcotest.(check (option int)) "unknown counter reads None" None
    (Obs.Metrics.counter_value "absent")

let test_snapshot_json_shape () =
  Obs.Metrics.counter_add "c" 7;
  Obs.Metrics.gauge_set "g" 1.5;
  Obs.Metrics.observe "h" 3.0;
  let js = Obs.Metrics.snapshot_json () in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length js && (String.sub js i n = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json contains " ^ needle) true (has needle))
    [
      "\"schema\":\"" ^ Obs.Metrics.schema ^ "\"";
      "\"counters\":";
      "\"gauges\":";
      "\"histograms\":";
      "\"name\":\"c\"";
      "\"value\":7";
    ]

(* Counters count work items (gates, shots, MACs, solver evals and
   gradients), never scheduling facts, so a characterization and the
   validation on it must produce the bit-identical snapshot whatever the
   pool's domain count. *)
let det_program () =
  Program.make
    Circuit.(
      empty 3 |> h 0 |> cx 0 1 |> x 2 |> cx 1 2
      |> tracepoint 1 [ 0; 1 ]
      |> tracepoint 2 [ 2 ])

let snapshot_after_run domains =
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  let pool = Parallel.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let ch =
        Morphcore.Characterize.run ~pool ~rng:(Stats.Rng.make 7)
          (det_program ()) ~count:4
      in
      ignore
        (Verify.validate ~rng:(Stats.Rng.make 7)
           (Approx.of_characterization ch)
           (Assertion.make
              ~assumes:[ Predicate.Diag_in_range (0, 0, 0.2, 1.) ]
              ~guarantees:[ Predicate.Is_pure 1 ]
              ())));
  Obs.Metrics.snapshot ()

let test_counter_determinism_across_domains () =
  let base = snapshot_after_run 1 in
  Alcotest.(check bool) "run recorded something" true (base <> []);
  Alcotest.(check bool)
    "exact gradients counted" true
    (Obs.Metrics.counter_value
       ~labels:[ ("kind", "analytic"); ("solver", "quadratic") ]
       "solver_gradients_total"
    <> None);
  List.iter
    (fun d ->
      let s = snapshot_after_run d in
      if s <> base then
        Alcotest.failf "metrics snapshot differs between 1 and %d domains" d)
    [ 2; 4 ]

(* ---------------- export golden ---------------- *)

let test_trace_jsonl_golden () =
  Obs.set_clock_for_testing (Some (tick_clock ()));
  let since = Obs.Span.mark () in
  ( Obs.Span.with_ ~name:"outer" ~attrs:[ ("k", "v"); ("n", "2") ]
    @@ fun () -> ignore (Obs.Span.with_ ~name:"in\"ner" (fun () -> ())) );
  let tid = (Domain.self () :> int) in
  let expect =
    String.concat ""
      [
        Printf.sprintf
          "{\"name\":\"outer\",\"cat\":\"morphqpv\",\"ph\":\"B\",\"ts\":0.000,\"pid\":1,\"tid\":%d,\"args\":{\"k\":\"v\",\"n\":\"2\"}}\n"
          tid;
        Printf.sprintf
          "{\"name\":\"in\\\"ner\",\"cat\":\"morphqpv\",\"ph\":\"B\",\"ts\":1.000,\"pid\":1,\"tid\":%d}\n"
          tid;
        Printf.sprintf
          "{\"name\":\"in\\\"ner\",\"cat\":\"morphqpv\",\"ph\":\"E\",\"ts\":2.000,\"pid\":1,\"tid\":%d}\n"
          tid;
        Printf.sprintf
          "{\"name\":\"outer\",\"cat\":\"morphqpv\",\"ph\":\"E\",\"ts\":3.000,\"pid\":1,\"tid\":%d}\n"
          tid;
      ]
  in
  Alcotest.(check string) "chrome trace_event JSONL" expect
    (Obs.Export.trace_jsonl ~since ())

(* ---------------- scoped reads and mark-based reclaim ---------------- *)

let names evs = List.map (fun (ev : Obs.Span.event) -> ev.Obs.Span.name) evs

let test_span_until_and_reclaim () =
  let m0 = Obs.Span.mark () in
  Obs.Span.with_ ~name:"first" (fun () -> ());
  let m1 = Obs.Span.mark () in
  Obs.Span.with_ ~name:"second" (fun () -> ());
  let m2 = Obs.Span.mark () in
  Alcotest.(check (list string))
    "since/until brackets exactly one request" [ "first"; "first" ]
    (names (Obs.Span.events ~since:m0 ~until:m1 ()));
  Alcotest.(check (list string))
    "second window" [ "second"; "second" ]
    (names (Obs.Span.events ~since:m1 ~until:m2 ()));
  (* reclaim drops archived events, keeps the rest, preserves [dropped] *)
  Obs.Span.reclaim ~before:m1 ();
  Alcotest.(check (list string))
    "first request reclaimed" [ "second"; "second" ]
    (names (Obs.Span.events ()));
  Alcotest.(check int) "dropped preserved across reclaim" 0
    (Obs.Span.dropped ());
  Obs.Span.reclaim ~before:(Obs.Span.mark ()) ();
  Alcotest.(check (list string)) "full reclaim empties the rings" []
    (names (Obs.Span.events ()));
  (* the rings still record after a reclaim *)
  Obs.Span.with_ ~name:"third" (fun () -> ());
  Alcotest.(check (list string))
    "recording continues" [ "third"; "third" ]
    (names (Obs.Span.events ()))

(* ---------------- request context ---------------- *)

let test_context_scoping () =
  Alcotest.(check (option string)) "unset outside" None (Obs.Context.current ());
  Obs.Context.with_request "a" (fun () ->
      Alcotest.(check (option string))
        "set inside" (Some "a") (Obs.Context.current ());
      Obs.Context.with_request "b" (fun () ->
          Alcotest.(check (option string))
            "nested shadows" (Some "b") (Obs.Context.current ()));
      Alcotest.(check (option string))
        "outer restored" (Some "a") (Obs.Context.current ()));
  Alcotest.(check (option string)) "cleared after" None (Obs.Context.current ())

let test_span_request_attr () =
  let since = Obs.Span.mark () in
  Obs.Context.with_request "req-9" (fun () ->
      Obs.Span.with_ ~name:"work" ~attrs:[ ("k", "v") ] (fun () -> ()));
  match Obs.Span.events ~since () with
  | [ b; _e ] ->
      Alcotest.(check (option string))
        "span carries the request id" (Some "req-9")
        (List.assoc_opt "req" b.Obs.Span.attrs);
      Alcotest.(check (option string))
        "caller attrs preserved" (Some "v")
        (List.assoc_opt "k" b.Obs.Span.attrs)
  | evs -> Alcotest.failf "expected one span (2 events), got %d" (List.length evs)

(* ---------------- structured log ---------------- *)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let check_contains line needle =
  Alcotest.(check bool) ("line contains " ^ needle) true (contains line needle)

let with_log f () =
  Fun.protect ~finally:(fun () -> Obs.Log.configure `Off) f

let test_log_jsonl () =
  let lines = ref [] in
  Obs.Log.configure ~level:Obs.Log.Info (`Fn (fun l -> lines := l :: !lines));
  Obs.Log.emit Obs.Log.Debug "below.threshold" [];
  Obs.Log.emit Obs.Log.Info "hello"
    [
      ("n", Obs.Log.I 3);
      ("s", Obs.Log.S "a\"b\nc");
      ("f", Obs.Log.F 1.5);
      ("nan", Obs.Log.F Float.nan);
      ("b", Obs.Log.B true);
    ];
  match !lines with
  | [ line ] ->
      check_contains line "\"level\":\"info\"";
      check_contains line "\"event\":\"hello\"";
      check_contains line "\"n\":3";
      check_contains line "\"s\":\"a\\\"b\\nc\"";
      check_contains line "\"f\":1.5";
      check_contains line "\"nan\":null";
      check_contains line "\"b\":true";
      check_contains line "\"ts\":"
  | l -> Alcotest.failf "expected exactly one line, got %d" (List.length l)

let test_log_request_id () =
  let lines = ref [] in
  Obs.Log.configure ~level:Obs.Log.Debug (`Fn (fun l -> lines := l :: !lines));
  Obs.Context.with_request "req-7" (fun () ->
      Obs.Log.emit Obs.Log.Info "inside" []);
  Obs.Log.emit Obs.Log.Info "outside" [];
  match List.rev !lines with
  | [ inside; outside ] ->
      check_contains inside "\"req\":\"req-7\"";
      Alcotest.(check bool) "no req outside a request" false
        (contains outside "\"req\":")
  | l -> Alcotest.failf "expected two lines, got %d" (List.length l)

let test_log_disabled_is_noop () =
  let hits = ref 0 in
  Obs.Log.configure ~level:Obs.Log.Info (`Fn (fun _ -> incr hits));
  Obs.Log.configure `Off;
  Alcotest.(check bool) "no level enabled when off" false
    (Obs.Log.enabled Obs.Log.Error);
  Obs.Log.emit Obs.Log.Error "ghost" [];
  Alcotest.(check int) "sink never called" 0 !hits

(* ---------------- prometheus exposition ---------------- *)

let test_prometheus_exposition () =
  Obs.Metrics.counter_add ~labels:[ ("verb", "verify") ] "requests_total" 3;
  Obs.Metrics.observe ~buckets:[| 1.; 2. |] "lat" 0.5;
  Obs.Metrics.observe ~buckets:[| 1.; 2. |] "lat" 1.5;
  Obs.Metrics.observe ~buckets:[| 1.; 2. |] "lat" 9.0;
  Obs.Metrics.gauge_set "ratio" 0.25;
  let text = Obs.Export.prometheus () in
  List.iter (check_contains text)
    [
      "# TYPE morphqpv_requests_total counter\n";
      "morphqpv_requests_total{verb=\"verify\"} 3\n";
      "# TYPE morphqpv_lat histogram\n";
      (* buckets are cumulative in the exposition, per-bucket internally *)
      "morphqpv_lat_bucket{le=\"1\"} 1\n";
      "morphqpv_lat_bucket{le=\"2\"} 2\n";
      "morphqpv_lat_bucket{le=\"+Inf\"} 3\n";
      "morphqpv_lat_sum 11\n";
      "morphqpv_lat_count 3\n";
      "# TYPE morphqpv_ratio gauge\n";
      "morphqpv_ratio 0.25\n";
      (* ring saturation is synthesized at scrape time, not a registry
         counter (it is domain-distribution-dependent) *)
      "# TYPE morphqpv_obs_span_dropped_total counter\n";
      "morphqpv_obs_span_dropped_total 0\n";
    ]

(* ---------------- disabled path ---------------- *)

let test_disabled_is_noop () =
  Obs.configure ~enabled:false;
  let since = Obs.Span.mark () in
  let r = Obs.Span.with_ ~name:"ghost" (fun () -> 7) in
  Alcotest.(check int) "with_ is exactly f ()" 7 r;
  Obs.Metrics.counter_add "ghost_total" 5;
  Obs.Metrics.observe "ghost_h" 1.0;
  Obs.Metrics.gauge_set "ghost_g" 2.0;
  Alcotest.(check (list reject)) "no events buffered" []
    (List.map (fun _ -> ()) (Obs.Span.events ~since ()));
  Alcotest.(check (option int)) "no counter created" None
    (Obs.Metrics.counter_value "ghost_total");
  Alcotest.(check int) "registry untouched" 0
    (List.length (Obs.Metrics.snapshot ()))

(* ---------------- MQ017 (characterization cost lint) ---------------- *)

let test_mq017 () =
  let c = Circuit.(empty 2 |> h 0 |> cx 0 1 |> tracepoint 1 [ 0; 1 ]) in
  (match Analysis.Lint.check_cost ~estimate:(fun _ -> 2.0) ~threshold:1.0 c with
  | [ d ] ->
      Alcotest.(check string) "code" "MQ017" d.Analysis.Lint.code;
      Alcotest.(check bool) "warning severity" true
        (d.Analysis.Lint.severity = Analysis.Lint.Warning);
      Alcotest.(check (option (pair int int))) "circuit-wide" None
        d.Analysis.Lint.loc
  | ds -> Alcotest.failf "expected one MQ017, got %d diagnostics"
            (List.length ds));
  Alcotest.(check int) "under threshold is silent" 0
    (List.length
       (Analysis.Lint.check_cost ~estimate:(fun _ -> 0.5) ~threshold:1.0 c));
  (* the real estimator wired by the CLI trips on a tiny threshold *)
  let estimate c =
    Sim.Cost.hardware_seconds (Sim.Cost.estimate_characterization c)
  in
  Alcotest.(check bool) "Sim.Cost estimator integrates" true
    (Analysis.Lint.check_cost ~estimate ~threshold:1e-9 c <> []);
  Alcotest.(check bool) "MQ017 is in the code table" true
    (Analysis.Lint.severity_of_code "MQ017" = Analysis.Lint.Warning)

(* ---------------- transparency property ---------------- *)

let prop_obs_transparent =
  QCheck.Test.make ~name:"enabling obs never perturbs engine outputs"
    ~count:(max 10 (count / 2))
    (Gen.program ())
    Oracle.obs_transparent

let () =
  Config.announce ~exe:"test_obs";
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick
            (with_obs test_span_nesting);
          Alcotest.test_case "span closes on raise" `Quick
            (with_obs test_span_closes_on_raise);
          Alcotest.test_case "summary aggregates by name" `Quick
            (with_obs test_span_summary);
          Alcotest.test_case "ring bound and dropped counter" `Slow
            (with_obs test_span_ring_bound);
          Alcotest.test_case "mark-scoped reads and reclaim" `Quick
            (with_obs test_span_until_and_reclaim);
          Alcotest.test_case "request id stamped as span attr" `Quick
            (with_obs test_span_request_attr);
        ] );
      ( "context",
        [
          Alcotest.test_case "with_request scoping" `Quick test_context_scoping;
        ] );
      ( "log",
        [
          Alcotest.test_case "JSONL shape and level filtering" `Quick
            (with_log test_log_jsonl);
          Alcotest.test_case "request id injection" `Quick
            (with_log test_log_request_id);
          Alcotest.test_case "off sink never fires" `Quick
            (with_log test_log_disabled_is_noop);
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket edges" `Quick
            (with_obs test_histogram_edges);
          Alcotest.test_case "counter labels and reads" `Quick
            (with_obs test_counter_roundtrip);
          Alcotest.test_case "snapshot json shape" `Quick
            (with_obs test_snapshot_json_shape);
          Alcotest.test_case "counters identical across 1/2/4 domains" `Slow
            (with_obs test_counter_determinism_across_domains);
        ] );
      ( "export",
        [
          Alcotest.test_case "trace_event JSONL golden" `Quick
            (with_obs test_trace_jsonl_golden);
          Alcotest.test_case "prometheus exposition" `Quick
            (with_obs test_prometheus_exposition);
        ] );
      ( "disabled",
        [
          Alcotest.test_case "zero-cost path records nothing" `Quick
            (with_obs test_disabled_is_noop);
        ] );
      ("lint", [ Alcotest.test_case "MQ017 cost diagnostic" `Quick test_mq017 ]);
      ("transparency", [ qtest prop_obs_transparent ]);
    ]
