(* Content-addressed cache + verification daemon tests (DESIGN.md §15):
   FNV golden vectors, the QCheck-pinned canonicalization invariant
   (equal unit bytes => bit-identical unit simulation), LRU/byte-bound/
   persistence behavior of the store, every memo layer (characterize
   incremental + whole-result, verdict, tomography), the
   cache-transparency oracle with a persistence reload, MQ020 cone-hash
   lint, and the JSON-RPC protocol (Jsonx roundtrips, [Server.handle_line]
   unit tests, one end-to-end socket smoke against the built daemon). *)

open Testkit
open Morphcore

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

let temp_dir () =
  let d = Filename.temp_file "morphqpv-cache" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------ FNV ----------------------------------- *)

(* golden vectors from the reference FNV-1a specification *)
let test_fnv_golden () =
  Alcotest.(check int64)
    "empty" 0xcbf29ce484222325L
    (Cache.Fnv.fnv1a64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Cache.Fnv.fnv1a64 "a");
  Alcotest.(check int)
    "hex digest width" 32
    (String.length (Cache.Fnv.hex "morphqpv"));
  Alcotest.(check bool)
    "lanes separate near-collisions" false
    (Cache.Fnv.hex "a" = Cache.Fnv.hex "b");
  Alcotest.(check bool)
    "seed non-negative" true
    (Cache.Fnv.seed_of_string "anything" >= 0)

(* ------------------------------ Canon ---------------------------------- *)

let ghz3 =
  Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2 |> tracepoint 1 [ 0; 1; 2 ])

let test_canon_normalization () =
  let with_rz th =
    Circuit.(empty 1 |> rz th 0 |> tracepoint 1 [ 0 ]) |> Cache.Canon.canonical_bytes
  in
  Alcotest.(check string) "-0.0 folds to 0.0" (with_rz 0.0) (with_rz (-0.0));
  Alcotest.(check bool)
    "distinct angles distinct bytes" false
    (with_rz 0.5 = with_rz 0.25);
  let with_barrier =
    Circuit.(
      empty 3 |> h 0 |> cx 0 1 |> barrier [ 0; 1 ] |> cx 1 2
      |> tracepoint 1 [ 0; 1; 2 ])
  in
  Alcotest.(check string)
    "barriers excluded from canonical bytes"
    (Cache.Canon.canonical_bytes ghz3)
    (Cache.Canon.canonical_bytes with_barrier);
  Alcotest.(check bool)
    "barriers kept in exact bytes" false
    (Cache.Canon.exact_bytes ghz3 = Cache.Canon.exact_bytes with_barrier);
  let with_id id =
    Circuit.(empty 2 |> h 0 |> cx 0 1 |> tracepoint id [ 0; 1 ])
  in
  Alcotest.(check string)
    "tracepoint ids excluded from canonical bytes"
    (Cache.Canon.canonical_bytes (with_id 1))
    (Cache.Canon.canonical_bytes (with_id 9));
  Alcotest.(check bool)
    "tracepoint ids kept in exact bytes" false
    (Cache.Canon.exact_bytes (with_id 1) = Cache.Canon.exact_bytes (with_id 9))

(* rebuild a circuit with qubit q renamed to perm.(q) *)
let permute_qubits perm c =
  List.fold_left
    (fun acc i -> Circuit.add (Circuit.Instr.remap (fun q -> perm.(q)) i) acc)
    (Circuit.empty ~clbits:(Circuit.num_clbits c) (Circuit.num_qubits c))
    (Circuit.instrs c)

(* the pinned cache invariant: a qubit relabeling leaves every cone's
   canonical unit bytes unchanged, and simulating the relabeled unit from
   the same embedded input replays bit-identical tracepoint states *)
let prop_units_relabeling_invariant =
  QCheck.Test.make ~name:"equal unit bytes => identical unit simulation"
    ~count (Gen.pure ()) (fun sketch ->
      let c = Gen.build sketch in
      let n = Circuit.num_qubits c in
      let perm = Array.init n (fun q -> n - 1 - q) in
      let c' = permute_qubits perm c in
      let inputs = List.init n Fun.id in
      let inputs' = List.map (fun q -> perm.(q)) inputs in
      let simulate (u : Cache.Canon.unit_circuit) id =
        let st = Qstate.Statevec.zero u.Cache.Canon.width in
        (* basis input 0b01 pattern over the input qubits, via the embed *)
        let idx = ref 0 in
        Array.iteri
          (fun j uq -> if j mod 2 = 0 then idx := !idx lor (1 lsl uq))
          u.Cache.Canon.embed;
        Qstate.Statevec.set_amplitude st !idx Linalg.Cx.one;
        let out = Sim.Engine.run ~initial:st u.Cache.Canon.circuit in
        List.assoc id out.Sim.Engine.traces
      in
      List.for_all2
        (fun (cone : Analysis.Lightcone.cone)
             (cone' : Analysis.Lightcone.cone) ->
          let u = Cache.Canon.cone_unit c ~input_qubits:inputs cone in
          let u' = Cache.Canon.cone_unit c' ~input_qubits:inputs' cone' in
          u.Cache.Canon.bytes = u'.Cache.Canon.bytes
          && simulate u cone.Analysis.Lightcone.id
             = simulate u' cone'.Analysis.Lightcone.id)
        (Analysis.Lightcone.cones c)
        (Analysis.Lightcone.cones c'))

let prop_canonical_relabeling_invariant =
  QCheck.Test.make ~name:"canonical_bytes invariant under qubit relabeling"
    ~count (Gen.program ()) (fun sketch ->
      let c = Gen.build sketch in
      let n = Circuit.num_qubits c in
      let perm = Array.init n (fun q -> n - 1 - q) in
      Cache.Canon.canonical_bytes c
      = Cache.Canon.canonical_bytes (permute_qubits perm c))

(* ------------------------------ Store ---------------------------------- *)

let test_store_lru () =
  let cache = Cache.create ~max_bytes:4096 () in
  let payload = String.make 512 'x' in
  for i = 0 to 31 do
    Cache.store cache ~ns:"t" (string_of_int i) payload
  done;
  let s = Cache.stats cache in
  Alcotest.(check bool) "evictions happened" true (s.Cache.evictions > 0);
  Alcotest.(check bool) "byte budget held" true (s.Cache.bytes <= 4096);
  Alcotest.(check (option string))
    "most recent entry survives" (Some payload)
    (Cache.find cache ~ns:"t" "31");
  Alcotest.(check (option string))
    "cold end evicted" None
    (Cache.find cache ~ns:"t" "0");
  let s = Cache.stats cache in
  Alcotest.(check int) "stores counted" 32 s.Cache.stores;
  Alcotest.(check int) "hit counted" 1 s.Cache.hits;
  Alcotest.(check int) "miss counted" 1 s.Cache.misses

let test_store_namespaces () =
  let cache = Cache.create () in
  Cache.store cache ~ns:"a" "k" "va";
  Cache.store cache ~ns:"b" "k" "vb";
  Alcotest.(check (option string))
    "namespaces isolate keys" (Some "va")
    (Cache.find cache ~ns:"a" "k");
  Alcotest.(check (option string)) "" (Some "vb") (Cache.find cache ~ns:"b" "k")

let test_store_persistence () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir () in
  Cache.store_value cache ~ns:"t" "key" [| 1.5; 2.5 |];
  Cache.drop_memory cache;
  Alcotest.(check bool)
    "disk tier survives drop_memory" true
    (Cache.find_value cache ~ns:"t" "key" = Some [| 1.5; 2.5 |]);
  (* a fresh store over the same directory sees the entry *)
  let reopened = Cache.create ~dir () in
  Alcotest.(check bool)
    "fresh store reads persisted entry" true
    (Cache.find_value reopened ~ns:"t" "key" = Some [| 1.5; 2.5 |]);
  (* corrupt every entry file (dir/ns/<hex>): reads must degrade to
     misses, not exceptions *)
  Array.iter
    (fun ns ->
      let nsdir = Filename.concat dir ns in
      if Sys.is_directory nsdir then
        Array.iter
          (fun f ->
            Out_channel.with_open_bin (Filename.concat nsdir f) (fun oc ->
                output_string oc "garbage"))
          (Sys.readdir nsdir))
    (Sys.readdir dir);
  let corrupted = Cache.create ~dir () in
  Alcotest.(check bool)
    "corrupt files read as misses" true
    (Cache.find_value corrupted ~ns:"t" "key" = (None : float array option))

(* --------------------------- memo layers -------------------------------- *)

let three_cone_circuit theta =
  Circuit.(
    empty 6 |> h 0 |> cx 0 1 |> rz theta 1
    |> tracepoint 1 [ 0; 1 ]
    |> h 2 |> cx 2 3 |> t_gate 3
    |> tracepoint 2 [ 2; 3 ]
    |> h 4 |> cx 4 5
    |> tracepoint 3 [ 4; 5 ])

let traces_of (ch : Characterize.t) =
  Array.map (fun s -> s.Characterize.traces) ch.Characterize.samples

let characterize ~cache theta =
  Characterize.run ~cache
    ~rng:(Stats.Rng.make 11)
    ~mode:(Characterize.Tomography { shots = 24; project = true })
    (Program.make (three_cone_circuit theta))
    ~count:3

(* the headline acceptance behavior: a warm re-verification performs zero
   simulation and zero tomography shots; an edited program re-characterizes
   only the tracepoint whose cone changed *)
let test_incremental_warm_and_edited () =
  let cache = Cache.create () in
  let cold = characterize ~cache 0.7 in
  let s_cold = Cache.stats cache in
  Alcotest.(check int) "cold: one miss per cone" 3 s_cold.Cache.misses;
  Alcotest.(check bool)
    "cold did quantum work" true
    (cold.Characterize.cost.Sim.Cost.executions > 0
    && cold.Characterize.cost.Sim.Cost.shots > 0);
  let warm = characterize ~cache 0.7 in
  let s_warm = Cache.stats cache in
  Alcotest.(check int) "warm: no new misses" s_cold.Cache.misses s_warm.Cache.misses;
  Alcotest.(check int) "warm: one hit per cone" (s_cold.Cache.hits + 3) s_warm.Cache.hits;
  Alcotest.(check int)
    "warm: zero executions" 0 warm.Characterize.cost.Sim.Cost.executions;
  Alcotest.(check int)
    "warm: zero shots" 0 warm.Characterize.cost.Sim.Cost.shots;
  Alcotest.(check bool)
    "warm traces bit-identical" true
    (traces_of cold = traces_of warm);
  let edited = characterize ~cache 1.3 in
  let s_edited = Cache.stats cache in
  Alcotest.(check int)
    "edited: exactly the changed cone misses" (s_warm.Cache.misses + 1)
    s_edited.Cache.misses;
  Alcotest.(check int)
    "edited: the two unchanged cones hit" (s_warm.Cache.hits + 2)
    s_edited.Cache.hits;
  Alcotest.(check int)
    "edited: a third of the cold executions"
    (cold.Characterize.cost.Sim.Cost.executions / 3)
    edited.Characterize.cost.Sim.Cost.executions;
  (* the unchanged cones' traces are the cached (cold) values verbatim *)
  Array.iteri
    (fun i traces ->
      Alcotest.(check bool)
        "unchanged cone trace reused" true
        (List.assoc 2 traces = List.assoc 2 (traces_of cold).(i)))
    (traces_of edited)

(* stochastic programs fall back to the whole-result memo *)
let test_whole_result_memo () =
  let c =
    Circuit.(
      empty ~clbits:1 2 |> h 0 |> cx 0 1 |> measure 0 0
      |> tracepoint 1 [ 1 ])
  in
  let cache = Cache.create () in
  let run () =
    Characterize.run ~cache
      ~rng:(Stats.Rng.make 4)
      ~trajectories:3 (Program.make c) ~count:3
  in
  let cold = run () in
  let warm = run () in
  Alcotest.(check bool)
    "whole-result hit recorded" true
    ((Cache.stats cache).Cache.hits > 0);
  Alcotest.(check int)
    "warm: zero executions" 0 warm.Characterize.cost.Sim.Cost.executions;
  Alcotest.(check bool)
    "warm samples identical" true
    (traces_of cold = traces_of warm)

let test_verdict_memo () =
  let cache = Cache.create () in
  let validate () =
    let ch = characterize ~cache:(Cache.create ()) 0.7 in
    let approx = Approx.of_characterization ch in
    let assertion =
      Assertion.make ~assumes:[]
        ~guarantees:[ Predicate.Purity_ge (3, 0.2) ]
        ()
    in
    let options =
      { Verify.default_options with budget = 100; restarts = 1; projection = `Trace }
    in
    Verify.validate ~options ~rng:(Stats.Rng.make 5) ~cache approx assertion
  in
  let cold = validate () in
  let before = Cache.stats cache in
  let warm = validate () in
  let after = Cache.stats cache in
  Alcotest.(check int) "verdict hit" (before.Cache.hits + 1) after.Cache.hits;
  Alcotest.(check bool) "verdicts identical" true (cold = warm)

let test_tomo_memo () =
  let truth =
    let v = Qstate.Statevec.to_cvec (Qstate.Statevec.zero 2) in
    Linalg.Cmat.outer v v
  in
  let cache = Cache.create () in
  let run () =
    Tomography.State_tomo.run
      ~cache:(cache, "test-ctx")
      (Stats.Rng.make 9) ~shots:16 ~truth ()
  in
  let cold = run () in
  let before = Cache.stats cache in
  let warm = run () in
  Alcotest.(check int)
    "estimate hit" (before.Cache.hits + 1)
    (Cache.stats cache).Cache.hits;
  Alcotest.(check bool) "estimates identical" true (cold = warm)

(* cached and uncached paths agree bit-for-bit across cold/warm/eviction,
   and across a persistence reload *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let prop_cache_transparent =
  QCheck.Test.make ~name:"cache transparency (programs)" ~count:(max 5 (count / 4))
    (Gen.program ()) (fun sketch ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> remove_tree dir)
        (fun () -> Oracle.cache_transparent ~dir sketch))

(* ------------------------------ lint ----------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_lint_cone_hashes () =
  let digests = Cache.Canon.cone_digests in
  let duplicated =
    Circuit.(
      empty 4 |> h 0 |> cx 0 1
      |> tracepoint 1 [ 0; 1 ]
      |> h 2 |> cx 2 3
      |> tracepoint 2 [ 2; 3 ]
      |> tracepoint 3 [ 2; 3 ])
  in
  let ds = Analysis.Lint.check_cones ~digests duplicated in
  Alcotest.(check int) "one MQ020 per tracepoint + one group" 4 (List.length ds);
  List.iter
    (fun d -> Alcotest.(check string) "code" "MQ020" d.Analysis.Lint.code)
    ds;
  Alcotest.(check bool)
    "duplicate group flagged" true
    (List.exists
       (fun d -> contains ~sub:"share identical cones" d.Analysis.Lint.message)
       ds);
  (* the hash is canonical, so the relabel-equivalent cone on qubits
     (2,3) joins the group too: all three tracepoints share one hash *)
  Alcotest.(check bool)
    "group names the sharing tracepoints" true
    (List.exists
       (fun d -> contains ~sub:"3 tracepoints" d.Analysis.Lint.message)
       ds);
  (* distinct cones: no group diagnostic *)
  let distinct = three_cone_circuit 0.7 in
  Alcotest.(check int)
    "no group for distinct cones" 3
    (List.length (Analysis.Lint.check_cones ~digests distinct))

(* ------------------------------ jsonx ----------------------------------- *)

module Jsonx = Server.Jsonx

let parse_exn s =
  match Jsonx.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "json parse: %s" e

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("id", Jsonx.int 3);
        ("s", Jsonx.Str "he\"llo\n\t");
        ("xs", Jsonx.List [ Jsonx.Num 1.5; Jsonx.Bool true; Jsonx.Null ]);
        ("nested", Jsonx.Obj [ ("pi", Jsonx.Num 3.141592653589793) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (parse_exn (Jsonx.to_string v) = v);
  Alcotest.(check bool)
    "garbage is an Error" true
    (match Jsonx.parse "{oops" with Error _ -> true | Ok _ -> false);
  Alcotest.(check string)
    "non-finite floats are null" "[null,null,null]"
    (Jsonx.to_string
       (Jsonx.List [ Jsonx.Num infinity; Jsonx.Num neg_infinity; Jsonx.Num nan ]));
  Alcotest.(check string)
    "integers print without exponent" "{\"n\":42}"
    (Jsonx.to_string (Jsonx.Obj [ ("n", Jsonx.int 42) ]))

(* ------------------------------ server ---------------------------------- *)

let drive state lines =
  let out = ref [] in
  let emit j = out := j :: !out in
  let last =
    List.fold_left (fun _ line -> Server.handle_line state ~emit line) `Continue lines
  in
  (List.rev !out, last)

let member_exn key j =
  match Jsonx.member key j with
  | Some v -> v
  | None -> Alcotest.failf "missing %S in %s" key (Jsonx.to_string j)

let bool_exn j =
  match Jsonx.to_bool j with
  | Some b -> b
  | None -> Alcotest.failf "not a bool: %s" (Jsonx.to_string j)

let int_exn j =
  match Jsonx.to_int j with
  | Some i -> i
  | None -> Alcotest.failf "not an int: %s" (Jsonx.to_string j)

let test_server_ping_and_errors () =
  let state = Server.make_state () in
  let out, k =
    drive state
      [
        {|{"id":1,"method":"ping"}|};
        "this is not json";
        {|{"id":2,"method":"no-such-method"}|};
      ]
  in
  Alcotest.(check bool) "continues" true (k = `Continue);
  match out with
  | [ pong; bad; unknown ] ->
      Alcotest.(check bool)
        "pong" true
        (Jsonx.member "result" pong <> None);
      Alcotest.(check bool) "bad json errors" true (Jsonx.member "error" bad <> None);
      Alcotest.(check bool)
        "unknown method errors" true
        (Jsonx.member "error" unknown <> None)
  | _ -> Alcotest.failf "expected 3 response lines, got %d" (List.length out)

let ghz_qasm =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nT 1 q[0,1];\n"

let verify_req id =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", Jsonx.int id);
         ("method", Jsonx.Str "verify");
         ( "params",
           Jsonx.Obj
             [
               ("qasm", Jsonx.Str ghz_qasm);
               ("guarantee", Jsonx.Str "pure:1");
               ("count", Jsonx.int 4);
               ("seed", Jsonx.int 7);
             ] );
       ])

let test_server_verify_warm () =
  let state = Server.make_state ~cache:(Cache.create ()) () in
  let out, _ = drive state [ verify_req 1; verify_req 2 ] in
  let results =
    List.filter (fun j -> Jsonx.member "result" j <> None) out
  in
  match results with
  | [ first; second ] ->
      let verified j =
        member_exn "result" j |> member_exn "verified" |> bool_exn
      in
      Alcotest.(check bool) "GHZ verifies" true (verified first);
      Alcotest.(check bool) "still verifies warm" true (verified second);
      let cache_field name j =
        member_exn "result" j |> member_exn "cache" |> member_exn name
        |> int_exn
      in
      Alcotest.(check int) "cold request: no hits" 0 (cache_field "hits" first);
      Alcotest.(check bool)
        "warm request reports hits" true
        (cache_field "hits" second > 0);
      let executions j =
        member_exn "result" j |> member_exn "executions" |> int_exn
      in
      Alcotest.(check bool) "cold executed" true (executions first > 0);
      Alcotest.(check int) "warm executed nothing" 0 (executions second)
  | _ -> Alcotest.failf "expected 2 results, got %d" (List.length results)

(* translation validation over the protocol: a daemon started with
   [~certify:true] must emit a "certify" event (checker verdict +
   obligation counts) for every verify request — including the warm one,
   whose cached certified plan is re-checked — while a plain daemon only
   certifies requests that opt in with a certify:true param *)
let test_server_verify_certify () =
  let certify_events out =
    List.filter
      (fun j ->
        match Jsonx.member "event" j with
        | Some (Jsonx.Str "certify") -> true
        | _ -> false)
      out
  in
  let state = Server.make_state ~cache:(Cache.create ()) ~certify:true () in
  let out, _ = drive state [ verify_req 1; verify_req 2 ] in
  (match certify_events out with
  | [ _; _ ] as evs ->
      List.iter
        (fun j ->
          Alcotest.(check bool)
            "certified" true
            (member_exn "certified" j |> bool_exn);
          Alcotest.(check bool)
            "chain has steps" true
            (member_exn "steps" j |> int_exn > 0))
        evs
  | evs -> Alcotest.failf "expected 2 certify events, got %d" (List.length evs));
  Alcotest.(check bool)
    "still verifies under certification" true
    (List.exists
       (fun j ->
         match Jsonx.member "result" j with
         | Some r -> member_exn "verified" r |> bool_exn
         | None -> false)
       out);
  (* per-request opt-in on an uncertifying daemon *)
  let state = Server.make_state () in
  let with_certify =
    {|{"id":3,"method":"verify","params":{"qasm":|}
    ^ Jsonx.to_string (Jsonx.Str ghz_qasm)
    ^ {|,"guarantee":"pure:1","count":4,"seed":7,"certify":true}}|}
  in
  let out, _ = drive state [ verify_req 4; with_certify ] in
  Alcotest.(check int)
    "only the opted-in request is certified" 1
    (List.length (certify_events out))

(* request-id plumbing: a client-supplied top-level request_id is echoed
   on result AND error lines; requests without one get a generated req-N *)
let test_server_request_ids () =
  let state = Server.make_state () in
  let out, _ =
    drive state
      [
        {|{"id":1,"request_id":"cli-abc","method":"ping"}|};
        {|{"id":2,"method":"ping"}|};
        {|{"id":3,"request_id":"cli-err","method":"no-such-method"}|};
      ]
  in
  match out with
  | [ a; b; e ] ->
      Alcotest.(check (option string))
        "client id echoed" (Some "cli-abc")
        (Jsonx.mem_str "request_id" a);
      (match Jsonx.mem_str "request_id" b with
      | Some rid ->
          Alcotest.(check bool)
            "generated ids are req-N" true
            (String.length rid > 4 && String.sub rid 0 4 = "req-")
      | None -> Alcotest.fail "no request_id on the generated line");
      Alcotest.(check (option string))
        "error lines carry the id too" (Some "cli-err")
        (Jsonx.mem_str "request_id" e);
      Alcotest.(check bool)
        "and are errors" true
        (Jsonx.member "error" e <> None)
  | _ -> Alcotest.failf "expected 3 lines, got %d" (List.length out)

(* run [f] with obs enabled against fresh rings/registry, restoring the
   caller's setting — the metrics/trace RPCs only have content under obs *)
let with_obs_enabled f =
  let was = Obs.enabled () in
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.configure ~enabled:true;
  Fun.protect
    ~finally:(fun () ->
      Obs.configure ~enabled:was;
      Obs.Span.reset ();
      Obs.Metrics.reset ())
    f

let test_server_metrics_rpc () =
  with_obs_enabled (fun () ->
      let state = Server.make_state ~cache:(Cache.create ()) () in
      let out, _ =
        drive state [ verify_req 1; {|{"id":2,"method":"metrics"}|} ]
      in
      let metrics_result =
        List.filter_map (fun j -> Jsonx.member "result" j) out
        |> List.filter_map (Jsonx.mem_str "prometheus")
      in
      match metrics_result with
      | [ text ] ->
          let has needle =
            Alcotest.(check bool)
              ("exposition has " ^ needle)
              true
              (let n = String.length needle in
               let rec go i =
                 i + n <= String.length text
                 && (String.sub text i n = needle || go (i + 1))
               in
               go 0)
          in
          has "# TYPE morphqpv_requests_total counter\n";
          has "morphqpv_requests_total{verb=\"verify\"} 1\n";
          has "# TYPE morphqpv_request_seconds histogram\n";
          has "morphqpv_request_seconds_count{verb=\"verify\"} 1\n";
          has "morphqpv_request_seconds_bucket{verb=\"verify\",le=\"+Inf\"} 1\n";
          has "# TYPE morphqpv_cache_hit_ratio gauge\n";
          has "morphqpv_obs_span_dropped_total 0\n"
      | l -> Alcotest.failf "expected 1 metrics result, got %d" (List.length l))

let test_server_trace_rpc () =
  with_obs_enabled (fun () ->
      let state = Server.make_state ~cache:(Cache.create ()) () in
      let tagged id rid meth params =
        Jsonx.to_string
          (Jsonx.Obj
             ([
                ("id", Jsonx.int id);
                ("request_id", Jsonx.Str rid);
                ("method", Jsonx.Str meth);
              ]
             @ params))
      in
      let verify =
        match parse_exn (verify_req 1) with
        | Jsonx.Obj kvs ->
            Jsonx.to_string
              (Jsonx.Obj (("request_id", Jsonx.Str "t-1") :: kvs))
        | _ -> assert false
      in
      let trace =
        tagged 2 "t-trace" "trace"
          [ ("params", Jsonx.Obj [ ("request_id", Jsonx.Str "t-1") ]) ]
      in
      let unknown =
        tagged 3 "t-miss" "trace"
          [ ("params", Jsonx.Obj [ ("request_id", Jsonx.Str "nope") ]) ]
      in
      let out, _ = drive state [ verify; trace; unknown ] in
      let by_id n =
        match
          List.filter
            (fun j ->
              Jsonx.mem_int "id" j = Some n
              && (Jsonx.member "result" j <> None
                 || Jsonx.member "error" j <> None))
            out
        with
        | [ j ] -> j
        | l ->
            Alcotest.failf "expected 1 response for id %d, got %d" n
              (List.length l)
      in
      match (by_id 2, by_id 3) with
      | traced, missing ->
          let r = member_exn "result" traced in
          Alcotest.(check (option string))
            "trace targets the verify request" (Some "t-1")
            (Jsonx.mem_str "request_id" r);
          Alcotest.(check (option string))
            "records the verb" (Some "verify")
            (Jsonx.mem_str "verb" r);
          let events =
            match Jsonx.mem_list "trace" r with
            | Some l -> l
            | None -> Alcotest.fail "no trace list"
          in
          Alcotest.(check bool) "has events" true (List.length events > 0);
          let root = List.hd events in
          Alcotest.(check (option string))
            "chrome phase" (Some "B") (Jsonx.mem_str "ph" root);
          Alcotest.(check (option string))
            "request id in args" (Some "t-1")
            (Option.bind (Jsonx.member "args" root) (Jsonx.mem_str "req"));
          Alcotest.(check bool)
            "unknown request id errors" true
            (Jsonx.member "error" missing <> None))

(* ----------------------- jsonx property tests --------------------------- *)

let gen_jsonx : Jsonx.t QCheck.Gen.t =
  let open QCheck.Gen in
  (* dyadic rationals: finite by construction, exactly representable, so
     the writer's %.17g/%.0f output parses back to the identical float *)
  let finite_float =
    map2
      (fun m e -> Float.ldexp (float_of_int m) e)
      (int_range (-1_000_000) 1_000_000)
      (int_range (-20) 20)
  in
  let any_string = string_size ~gen:char (int_range 0 12) in
  let scalar =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map Jsonx.int (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> Jsonx.Num f) finite_float;
        map (fun s -> Jsonx.Str s) any_string;
      ]
  in
  let rec value depth =
    if depth <= 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map
              (fun l -> Jsonx.List l)
              (list_size (int_range 0 4) (value (depth - 1))) );
          ( 1,
            map
              (fun kvs -> Jsonx.Obj kvs)
              (list_size (int_range 0 4) (pair any_string (value (depth - 1))))
          );
        ]
  in
  value 3

let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"jsonx: parse (to_string v) = v" ~count
    (QCheck.make ~print:Jsonx.to_string gen_jsonx)
    (fun v -> parse_exn (Jsonx.to_string v) = v)

let test_jsonx_escaping () =
  Alcotest.(check string)
    "control chars and quotes escape" {|"a\"b\\c\nd\te\u0001\r"|}
    (Jsonx.to_string (Jsonx.Str "a\"b\\c\nd\te\x01\r"));
  Alcotest.(check bool)
    "escape forms parse back to raw bytes" true
    (parse_exn {|"A\n\"\\\/"|} = Jsonx.Str "A\n\"\\/");
  Alcotest.(check bool)
    "writer output is always one line" false
    (String.contains (Jsonx.to_string (Jsonx.Str "multi\nline")) '\n');
  (* metrics JSON shares the writer's escaper: a label full of control
     characters round-trips through the parser *)
  let label = "a\nb\tc\r\x01\"\\" in
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Obs.Metrics.counter_add ~labels:[ ("k", label) ] "jsonx_escape_probe_total" 1;
  let snap = Obs.Metrics.snapshot_json () in
  Obs.configure ~enabled:was;
  Alcotest.(check bool) "metrics JSON is one line" false (String.contains snap '\n');
  let probe =
    List.find_opt
      (fun e -> Jsonx.mem_str "name" e = Some "jsonx_escape_probe_total")
      (Option.get (Jsonx.mem_list "counters" (parse_exn snap)))
  in
  Alcotest.(check (option string))
    "label round-trips" (Some label)
    (Option.bind probe (fun e ->
         Option.bind (Jsonx.member "labels" e) (Jsonx.mem_str "k")))

let prop_server_obs_transparent =
  QCheck.Test.make
    ~name:"server obs transparency (verify RPC, obs off = obs on)"
    ~count:(max 5 (count / 10))
    (Gen.program ())
    Oracle.server_obs_transparent

let test_server_shutdown () =
  let state = Server.make_state () in
  let out, k = drive state [ {|{"id":9,"method":"shutdown"}|} ] in
  Alcotest.(check bool) "stops" true (k = `Stop);
  Alcotest.(check bool)
    "acknowledges" true
    (List.exists (fun j -> Jsonx.member "result" j <> None) out)

(* end-to-end over a real Unix socket: start the built daemon as its own
   process (forking this one is not allowed once the domain pool has
   started), ping it, verify a program twice (the second response must
   report cache hits), shut it down with SIGTERM and reap a clean exit *)
let daemon_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"

let test_serve_socket_smoke () =
  let path = Filename.temp_file "morphqpv-serve" ".sock" in
  Sys.remove path;
  (* memory-only cache: no disk tier inherited from the environment *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"MORPHQPV_CACHE" kv))
         (Array.to_list (Unix.environment ())))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env daemon_exe
      [| daemon_exe; "serve"; "--socket"; path |]
      env devnull devnull devnull
  in
  Unix.close devnull;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 60. in
      while not (Sys.file_exists path) do
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            reaped := true;
            Alcotest.fail "daemon exited before creating its socket");
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "daemon never created its socket";
        Unix.sleepf 0.02
      done;
      let addr = Server.Unix_path path in
      let request line =
        match Server.Client.request addr (parse_exn line) with
        | Ok j -> j
        | Error e -> Alcotest.failf "client error: %s" e
      in
      (* the socket file appears at bind, just before listen: retry the
         first connection briefly *)
      let rec ping tries =
        match Server.Client.request addr (parse_exn {|{"id":1,"method":"ping"}|}) with
        | Ok j -> j
        | Error _ when tries > 0 ->
            Unix.sleepf 0.05;
            ping (tries - 1)
        | Error e -> Alcotest.failf "client error: %s" e
      in
      let pong = ping 100 in
      Alcotest.(check bool) "pong" true (Jsonx.member "result" pong <> None);
      let first = request (verify_req 2) in
      let second = request (verify_req 3) in
      let hits j =
        member_exn "result" j |> member_exn "cache" |> member_exn "hits"
        |> int_exn
      in
      Alcotest.(check int) "cold over socket: no hits" 0 (hits first);
      Alcotest.(check bool) "warm over socket: hits" true (hits second > 0);
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      reaped := true;
      Alcotest.(check bool)
        "clean exit on SIGTERM" true
        (status = Unix.WEXITED 0);
      Alcotest.(check bool)
        "socket path cleaned up" false (Sys.file_exists path))

(* ------------------------------ spec ------------------------------------ *)

let test_spec_grammar () =
  let c = ghz3 in
  let ok = function Ok p -> p | Error e -> Alcotest.failf "spec: %s" e in
  (match ok (Server.Spec.parse_predicate c 3 "pure:1") with
  | Predicate.Is_pure 1 -> ()
  | _ -> Alcotest.fail "pure:1");
  (match ok (Server.Spec.parse_predicate c 3 "purity-ge:1,0.5") with
  | Predicate.Purity_ge (1, b) -> Alcotest.(check (float 0.) "bound" 0.5 b)
  | _ -> Alcotest.fail "purity-ge");
  (match Server.Spec.parse_predicate c 3 "pure:not-a-number" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed predicate must not parse");
  (match ok (Server.Spec.parse_budget "seq:0.01,0.1,500") with
  | `Sequential s ->
      Alcotest.(check int) "max shots" 500 s.Stats.Tests.max_shots
  | _ -> Alcotest.fail "seq budget");
  (match Server.Spec.parse_budget "fixed:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative budget must not parse");
  (match ok (Server.Spec.parse_mode "tomo:32") with
  | Characterize.Tomography { shots = 32; project = true } -> ()
  | _ -> Alcotest.fail "tomo mode");
  match ok (Server.Spec.parse_mode "exact") with
  | Characterize.Exact -> ()
  | _ -> Alcotest.fail "exact mode"

let () =
  Alcotest.run "cache"
    [
      ( "fnv",
        [ Alcotest.test_case "golden vectors" `Quick test_fnv_golden ] );
      ( "canon",
        [
          Alcotest.test_case "normalization" `Quick test_canon_normalization;
          qtest prop_canonical_relabeling_invariant;
          qtest prop_units_relabeling_invariant;
        ] );
      ( "store",
        [
          Alcotest.test_case "lru byte bound" `Quick test_store_lru;
          Alcotest.test_case "namespaces" `Quick test_store_namespaces;
          Alcotest.test_case "persistence" `Quick test_store_persistence;
        ] );
      ( "memo",
        [
          Alcotest.test_case "incremental warm + edited" `Quick
            test_incremental_warm_and_edited;
          Alcotest.test_case "whole-result fallback" `Quick
            test_whole_result_memo;
          Alcotest.test_case "verdict" `Quick test_verdict_memo;
          Alcotest.test_case "tomography" `Quick test_tomo_memo;
          qtest prop_cache_transparent;
        ] );
      ( "lint",
        [ Alcotest.test_case "MQ020 cone hashes" `Quick test_lint_cone_hashes ]
      );
      ( "server",
        [
          Alcotest.test_case "jsonx roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "jsonx escaping" `Quick test_jsonx_escaping;
          qtest prop_jsonx_roundtrip;
          Alcotest.test_case "ping + errors" `Quick test_server_ping_and_errors;
          Alcotest.test_case "request ids" `Quick test_server_request_ids;
          Alcotest.test_case "metrics rpc" `Quick test_server_metrics_rpc;
          Alcotest.test_case "trace rpc" `Quick test_server_trace_rpc;
          qtest prop_server_obs_transparent;
          Alcotest.test_case "verify warm" `Quick test_server_verify_warm;
          Alcotest.test_case "verify certified" `Quick
            test_server_verify_certify;
          Alcotest.test_case "shutdown" `Quick test_server_shutdown;
          Alcotest.test_case "socket smoke" `Quick test_serve_socket_smoke;
          Alcotest.test_case "spec grammar" `Quick test_spec_grammar;
        ] );
    ]
