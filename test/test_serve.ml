(* The serve daemon: qsynth-serve/v1 dispatch, the content-addressed
   report cache (hit/miss/LRU-eviction behavior), error-code mapping,
   the batch verb, and the loopback socket layer with concurrent
   clients.  Protocol tests drive [Serve.handle_line] in-process — the
   socket layer only moves lines, so this covers the daemon's whole
   behavior without binding sockets; the one socket test at the end
   pins the rest. *)

module J = Trace.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let sample_qasm =
  "OPENQASM 2.0;\n\
   include \"qelib1.inc\";\n\
   qreg q[3];\n\
   h q[0];\n\
   cx q[0],q[1];\n\
   cx q[1],q[2];\n\
   t q[2];\n"

let parse_response line =
  match J.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e

let rpc t fields = parse_response (Serve.handle_line t (J.to_string (J.Obj fields)))

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response is missing %S: %s" name (J.to_string j)

let int_field name j =
  match field name j with
  | J.Int i -> i
  | v -> Alcotest.failf "%S is not an int: %s" name (J.to_string v)

let bool_field name j =
  match field name j with
  | J.Bool b -> b
  | v -> Alcotest.failf "%S is not a bool: %s" name (J.to_string v)

let compile_req ?(device = "ibmqx4") ?options source =
  [
    ("op", J.String "compile");
    ("source", J.String source);
    ("device", J.String device);
  ]
  @ match options with None -> [] | Some o -> [ ("options", J.Obj o) ]

(* The options [Serve] applies to a bare request, rebuilt through the
   public compiler API: CLI defaults plus the daemon's 60s deadline
   ceiling. *)
let mirrored_options device =
  {
    (Compiler.default_options ~device) with
    Compiler.verification =
      Compiler.Fallback { node_budget = Some 8_000_000; max_sim_qubits = 10 };
    Compiler.budgets =
      { Compiler.no_budgets with Compiler.deadline_seconds = Some 60.0 };
  }

let one_shot_report_json ?(device_name = "ibmqx4") source =
  let device = Device.find device_name in
  let options = mirrored_options device in
  match Compiler.parse_source_checked ~format:"qasm" source with
  | Error d -> Alcotest.failf "one-shot parse failed: %s" (Diagnostic.to_string d)
  | Ok input -> (
    match Compiler.compile_checked options input with
    | Error ds ->
      Alcotest.failf "one-shot compile failed: %s"
        (String.concat "; " (List.map Diagnostic.to_string ds))
    | Ok report -> (
      match Compiler.report_to_json ~cost:options.Compiler.cost report with
      | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match k with
               | "elapsed_seconds" | "verification_seconds" -> (k, J.Null)
               | _ -> (k, v))
             fields)
      | other -> other))

(* --- protocol basics --- *)

let test_ping_and_envelope () =
  let t = Serve.create () in
  let r = rpc t [ ("op", J.String "ping"); ("id", J.Int 7) ] in
  check_string "protocol" "qsynth-serve/v1"
    (match field "protocol" r with J.String s -> s | _ -> "?");
  check_int "id echoed" 7 (int_field "id" r);
  check_bool "ok" true (bool_field "ok" r);
  check_int "code" 0 (int_field "code" r);
  check_bool "pong" true (bool_field "pong" r);
  check_bool "seconds present" true
    (match field "seconds" r with J.Float _ | J.Int _ -> true | _ -> false)

let test_compile_matches_one_shot () =
  let t = Serve.create () in
  let r = rpc t (compile_req sample_qasm) in
  check_int "code" 0 (int_field "code" r);
  check_bool "not cached" false (bool_field "cached" r);
  check_string "status" "ok"
    (match field "status" r with J.String s -> s | _ -> "?");
  (* The served report is byte-identical to a one-shot compile of the
     same request: timings are scrubbed to null on both sides, and
     everything else is deterministic. *)
  check_string "byte-identical to one-shot"
    (J.to_string (one_shot_report_json sample_qasm))
    (J.to_string (field "report" r));
  (* Scrubbing really happened. *)
  check_bool "elapsed scrubbed" true
    (J.member "elapsed_seconds" (field "report" r) = Some J.Null)

(* --- the cache --- *)

let test_cache_hit_and_key_sensitivity () =
  let t = Serve.create () in
  let first = rpc t (compile_req sample_qasm) in
  check_bool "first is a miss" false (bool_field "cached" first);
  let second = rpc t (compile_req sample_qasm) in
  check_bool "identical request hits" true (bool_field "cached" second);
  check_string "hit is byte-identical to the miss"
    (J.to_string (field "report" first))
    (J.to_string (field "report" second));
  (* One changed character of source misses. *)
  let tweaked = sample_qasm ^ "t q[0];\n" in
  check_bool "changed source misses" false
    (bool_field "cached" (rpc t (compile_req tweaked)));
  (* Same source, different device misses. *)
  check_bool "changed device misses" false
    (bool_field "cached" (rpc t (compile_req ~device:"ibmqx2" sample_qasm)));
  (* Same source and device, one changed option misses. *)
  check_bool "changed option misses" false
    (bool_field "cached"
       (rpc t
          (compile_req
             ~options:[ ("verification", J.String "skip") ]
             sample_qasm)));
  let stats = field "stats" (rpc t [ ("op", J.String "stats") ]) in
  let cache = field "cache" stats in
  check_int "hits" 1 (int_field "hits" cache);
  check_int "misses" 4 (int_field "misses" cache);
  check_int "resident" 4 (int_field "size" cache)

let test_lru_eviction () =
  let t = Serve.create ~cache_capacity:2 () in
  let source_a = sample_qasm in
  let source_b = sample_qasm ^ "x q[0];\n" in
  let source_c = sample_qasm ^ "z q[0];\n" in
  let compile s = bool_field "cached" (rpc t (compile_req s)) in
  check_bool "A misses" false (compile source_a);
  check_bool "B misses" false (compile source_b);
  check_bool "A hits" true (compile source_a);
  (* Capacity 2: inserting C evicts the least-recently-used entry,
     which is B (A was just touched). *)
  check_bool "C misses" false (compile source_c);
  check_bool "B was evicted" false (compile source_b);
  check_bool "A was evicted by B's re-insert" false (compile source_a);
  let cache = field "cache" (field "stats" (rpc t [ ("op", J.String "stats") ])) in
  (* Three capacity-exceeding inserts: C evicted B, B's re-insert
     evicted A, A's re-insert evicted C. *)
  check_int "evictions" 3 (int_field "evictions" cache);
  check_int "bounded" 2 (int_field "size" cache)

let test_zero_capacity_disables_caching () =
  let t = Serve.create ~cache_capacity:0 () in
  ignore (rpc t (compile_req sample_qasm));
  let second = rpc t (compile_req sample_qasm) in
  check_bool "nothing cached" false (bool_field "cached" second)

(* --- error-code mapping --- *)

let diagnostic_kind r =
  match field "diagnostics" r with
  | J.List (d :: _) -> (
    match J.member "kind" d with Some (J.String k) -> k | _ -> "?")
  | _ -> "?"

let test_malformed_frames_are_misuse () =
  let t = Serve.create () in
  let misuse =
    [
      "definitely not json";
      "{\"op\":";
      "[1,2,3]";
      "{\"op\":42}";
      J.to_string (J.Obj [ ("op", J.String "transmogrify") ]);
      J.to_string
        (J.Obj (compile_req ~device:"nosuchdevice" sample_qasm));
      J.to_string
        (J.Obj
           (compile_req
              ~options:[ ("not_an_option", J.Bool true) ]
              sample_qasm));
      {|{"op":"compile","source":17,"device":"ibmqx4"}|};
      {|{"op":"batch","requests":{}}|};
    ]
  in
  List.iter
    (fun frame ->
      let r = parse_response (Serve.handle_line t frame) in
      check_int (Printf.sprintf "misuse code for %s" frame) 124
        (int_field "code" r);
      check_bool "not ok" false (bool_field "ok" r);
      check_string
        (Printf.sprintf "protocol kind for %s" frame)
        "protocol" (diagnostic_kind r))
    misuse

let test_missing_fields_are_reported_failures () =
  let t = Serve.create () in
  List.iter
    (fun fields ->
      let r = rpc t fields in
      check_int "reported-failure code" 123 (int_field "code" r))
    [
      [ ("source", J.String sample_qasm) ];
      (* no op *)
      [ ("op", J.String "compile"); ("source", J.String sample_qasm) ];
      [ ("op", J.String "compile"); ("device", J.String "ibmqx4") ];
      [ ("op", J.String "batch") ];
    ]

let test_parse_errors_are_reported_failures () =
  let t = Serve.create () in
  let r = rpc t (compile_req "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n") in
  check_int "parse failure code" 123 (int_field "code" r);
  check_string "parse kind" "parse" (diagnostic_kind r)

(* --- batch --- *)

let test_batch_aggregates () =
  let t = Serve.create () in
  let entry fields = J.Obj fields in
  let r =
    rpc t
      [
        ("op", J.String "batch");
        ( "requests",
          J.List
            [
              entry (List.tl (compile_req sample_qasm));
              entry [ ("device", J.String "ibmqx4") ];
              (* missing source: 123 *)
              entry (List.tl (compile_req ~device:"nosuch" sample_qasm));
              (* unknown device: 124 *)
            ] );
      ]
  in
  check_int "total" 3 (int_field "total" r);
  check_int "failed" 2 (int_field "failed" r);
  (* Aggregate severity is the worst lane that occurred. *)
  check_int "envelope code" 124 (int_field "code" r);
  (match field "results" r with
  | J.List [ a; b; c ] ->
    check_int "first entry ok" 0 (int_field "code" a);
    check_int "missing source" 123 (int_field "code" b);
    check_int "unknown device" 124 (int_field "code" c)
  | v -> Alcotest.failf "results: %s" (J.to_string v));
  (* A batch miss populates the cache for later singles. *)
  check_bool "single after batch hits" true
    (bool_field "cached" (rpc t (compile_req sample_qasm)))

(* --- parallelism: counter consistency and batch identity --- *)

let cache_counters t =
  let c = field "cache" (field "stats" (rpc t [ ("op", J.String "stats") ])) in
  (int_field "lookups" c, int_field "hits" c, int_field "misses" c)

let test_lookups_count_resolved_consultations () =
  let t = Serve.create () in
  ignore (rpc t (compile_req sample_qasm));
  ignore (rpc t (compile_req sample_qasm));
  ignore (rpc t (compile_req (sample_qasm ^ "x q[0];\n")));
  let lookups, hits, misses = cache_counters t in
  check_int "hits" 1 hits;
  check_int "misses" 2 misses;
  check_int "lookups = hits + misses" (hits + misses) lookups

let test_stats_snapshot_is_never_torn () =
  (* The stats verb once read counter fields without the state lock, so
     a reader racing a compile could catch a request after its hit/miss
     bump but before (or after) its lookup bump — a torn snapshot where
     hits + misses <> lookups.  Hammer the daemon with compiling
     threads while a reader asserts the invariant on every snapshot. *)
  let t = Serve.create () in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reader =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let c = Serve.stats t in
          if c.Serve.hits + c.Serve.misses <> c.Serve.lookups then
            Atomic.incr torn;
          Thread.yield ()
        done)
      ()
  in
  let sources =
    List.init 6 (fun i ->
        sample_qasm ^ String.concat "" (List.init i (fun _ -> "x q[0];\n")))
  in
  let compilers =
    List.map
      (fun source ->
        Thread.create
          (fun () ->
            for _ = 1 to 3 do
              ignore (rpc t (compile_req source))
            done)
          ())
      sources
  in
  List.iter Thread.join compilers;
  Atomic.set stop true;
  Thread.join reader;
  check_int "no torn snapshot observed" 0 (Atomic.get torn);
  (* 6 distinct sources, each requested 3 times. *)
  let lookups, hits, misses = cache_counters t in
  check_int "misses" 6 misses;
  check_int "hits" 12 hits;
  check_int "lookups" (hits + misses) lookups

let test_parallel_batch_matches_sequential () =
  (* A daemon created with ~jobs:4 fans batch lanes across domains; the
     guarantee is byte-identical output AND identical cache counters to
     the sequential daemon — duplicates, per-lane failures and the
     cached flags included. *)
  let lanes =
    [
      List.tl (compile_req sample_qasm);
      List.tl (compile_req sample_qasm) (* duplicate: replays as a hit *);
      [ ("device", J.String "ibmqx4") ] (* missing source: 123 *);
      List.tl (compile_req ~device:"nosuch" sample_qasm) (* 124 *);
      List.tl (compile_req (sample_qasm ^ "x q[0];\n"));
      List.tl (compile_req "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n");
      List.tl (compile_req sample_qasm) (* late duplicate: also a hit *);
    ]
  in
  let batch =
    [
      ("op", J.String "batch");
      ("requests", J.List (List.map (fun fields -> J.Obj fields) lanes));
    ]
  in
  let run jobs =
    let t = Serve.create ~jobs () in
    let r = rpc t batch in
    (J.to_string (field "results" r), int_field "code" r, cache_counters t)
  in
  let seq_results, seq_code, (sl, sh, sm) = run 1 in
  let par_results, par_code, (pl, ph, pm) = run 4 in
  check_string "results byte-identical" seq_results par_results;
  check_int "envelope code" seq_code par_code;
  check_int "lookups" sl pl;
  check_int "hits" sh ph;
  check_int "misses" sm pm;
  check_int "invariant" (ph + pm) pl

let test_one_compile_per_domain () =
  (* A domain runs one compile at a time, so a compile's GC alarm
     measures that compile alone.  A batch and a one-shot compile race
     on a two-job daemon; the inject hook counts compiles in flight per
     domain while each one sleeps. *)
  let lock = Mutex.create () in
  let in_flight = Hashtbl.create 4 in
  let worst = ref 0 in
  let count delta =
    Mutex.lock lock;
    let d = (Domain.self () :> int) in
    let k = delta + Option.value ~default:0 (Hashtbl.find_opt in_flight d) in
    Hashtbl.replace in_flight d k;
    worst := max !worst k;
    Mutex.unlock lock
  in
  let hook () =
    count 1;
    Fun.protect ~finally:(fun () -> count (-1)) (fun () -> Thread.delay 0.2)
  in
  let t = Serve.create ~jobs:2 ~inject:hook () in
  let source i =
    sample_qasm ^ String.concat "" (List.init i (fun _ -> "x q[1];\n"))
  in
  let batch =
    [
      ("op", J.String "batch");
      ( "requests",
        J.List (List.init 4 (fun i -> J.Obj (List.tl (compile_req (source i))))) );
    ]
  in
  let batch_thread = Thread.create (fun () -> ignore (rpc t batch)) () in
  Thread.delay 0.05;
  let one_shot = rpc t (compile_req (source 4)) in
  Thread.join batch_thread;
  check_int "one-shot compiled" 0 (int_field "code" one_shot);
  check_int "compiles in flight on one domain" 1 !worst

(* Run [f i] for i = 0 .. n-1 on n threads at once and return the
   results; fails instead of hanging when they are not all back within
   [seconds]. *)
let race ?(seconds = 20.0) n f =
  let results = Array.make n None in
  let finished = Atomic.make 0 in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.incr finished)
              (fun () -> results.(i) <- Some (f i)))
          ())
  in
  let t0 = Unix.gettimeofday () in
  while Atomic.get finished < n && Unix.gettimeofday () -. t0 < seconds do
    Thread.delay 0.01
  done;
  if Atomic.get finished < n then
    Alcotest.failf "%d of %d requests still unanswered after %gs"
      (n - Atomic.get finished) n seconds;
  List.iter Thread.join threads;
  Array.map
    (function Some r -> r | None -> Alcotest.fail "a racer raised")
    results

let test_compiles_overlap_across_domains () =
  (* Two misses for different sources from two threads: a two-job
     daemon compiles them at once, on two domains; a one-job daemon one
     after the other.  The hook counts compiles in flight across the
     process. *)
  let peak jobs =
    let lock = Mutex.create () in
    let in_flight = ref 0 and worst = ref 0 in
    let count delta =
      Mutex.lock lock;
      in_flight := !in_flight + delta;
      worst := max !worst !in_flight;
      Mutex.unlock lock
    in
    let hook () =
      count 1;
      Fun.protect ~finally:(fun () -> count (-1)) (fun () -> Thread.delay 0.3)
    in
    let t = Serve.create ~jobs ~inject:hook () in
    let codes =
      race 2 (fun i ->
          int_field "code"
            (rpc t (compile_req (sample_qasm ^ Printf.sprintf "x q[%d];\n" i))))
    in
    Array.iter (check_int "compiled" 0) codes;
    !worst
  in
  check_int "two compiles at once under jobs 2" 2 (peak 2);
  check_int "one compile at a time under jobs 1" 1 (peak 1)

let test_racing_misses_coalesce () =
  (* Four requests for one source while its compile sleeps: one
     compile, one miss, three hits, and the same report bytes for all. *)
  let calls = Atomic.make 0 in
  let hook () =
    Atomic.incr calls;
    Thread.delay 0.3
  in
  let t = Serve.create ~inject:hook () in
  let responses = race 4 (fun _ -> rpc t (compile_req sample_qasm)) in
  check_int "the compiler ran once" 1 (Atomic.get calls);
  let _, hits, misses = cache_counters t in
  check_int "misses" 1 misses;
  check_int "hits" 3 hits;
  let report r = J.to_string (field "report" r) in
  Array.iter
    (fun r ->
      check_int "code" 0 (int_field "code" r);
      check_string "report bytes" (report responses.(0)) (report r))
    responses;
  check_int "one response was the miss" 1
    (Array.fold_left
       (fun n r -> if bool_field "cached" r then n else n + 1)
       0 responses)

let test_uncached_failure_releases_waiters () =
  (* The first compile raises, so nothing is cached: its two waiters
     must wake and retry, one as the next miss and one as its hit. *)
  let calls = Atomic.make 0 in
  let hook () =
    if Atomic.fetch_and_add calls 1 = 0 then begin
      Thread.delay 0.2;
      failwith "injected fault on the first compile"
    end
  in
  let t = Serve.create ~inject:hook () in
  let codes =
    race 3 (fun _ -> int_field "code" (rpc t (compile_req sample_qasm)))
  in
  Alcotest.(check (list int))
    "one internal error, two reports" [ 0; 0; 125 ]
    (List.sort compare (Array.to_list codes));
  check_int "the compiler ran twice" 2 (Atomic.get calls)

let test_stats_reports_jobs () =
  let t = Serve.create ~jobs:3 () in
  let stats = field "stats" (rpc t [ ("op", J.String "stats") ]) in
  check_int "jobs" 3 (int_field "jobs" (field "overload" stats))

let test_jobs_past_the_domain_cap () =
  (* OCaml caps a process at 128 domains: a daemon asking for more
     compiles on the domains the pool could get.  Registered last, as
     every later test would pay for the idle domains' share of each
     stop-the-world collection. *)
  let t = Serve.create ~jobs:200 () in
  check_int "first miss compiles" 0
    (int_field "code" (rpc t (compile_req sample_qasm)));
  check_int "later misses compile too" 0
    (int_field "code" (rpc t (compile_req (sample_qasm ^ "x q[2];\n"))))

(* --- the socket layer --- *)

(* Not "qsynth-serve...": test_fuzz counts that prefix in the shared
   temp directory to catch leaks of the fuzzer's own sockets, and dune
   runs the two suites at once. *)
let temp_socket_path () =
  let path = Filename.temp_file "qsynth-test-sock" ".sock" in
  Sys.remove path;
  path

let test_concurrent_clients_loopback () =
  (* Two clients over a real Unix socket, racing the same compile and
     one distinct compile each.  Every response for the shared request
     must be byte-identical to the one-shot compile — whichever client
     took the cache miss. *)
  let path = temp_socket_path () in
  let address = Serve.Unix_socket path in
  let daemon = Serve.create () in
  let server = Thread.create (fun () -> Serve.serve daemon address) () in
  let rec connect retries =
    match Serve.Client.connect address with
    | conn -> conn
    | exception _ when retries > 0 ->
      Thread.delay 0.02;
      connect (retries - 1)
    | exception e -> raise e
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         let conn = connect 5 in
         ignore (Serve.Client.request conn {|{"op":"shutdown"}|});
         Serve.Client.close conn
       with _ -> ());
      Thread.join server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let own_source i = sample_qasm ^ Printf.sprintf "x q[%d];\n" i in
      let results = [| None; None |] in
      let client i () =
        let conn = connect 100 in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close conn)
          (fun () ->
            let ask req =
              parse_response
                (Serve.Client.request conn (J.to_string (J.Obj req)))
            in
            let shared = ask (compile_req sample_qasm) in
            let own = ask (compile_req (own_source i)) in
            results.(i) <- Some (shared, own))
      in
      let t0 = Thread.create (client 0) () in
      let t1 = Thread.create (client 1) () in
      Thread.join t0;
      Thread.join t1;
      let expected = J.to_string (one_shot_report_json sample_qasm) in
      Array.iteri
        (fun i result ->
          match result with
          | None -> Alcotest.failf "client %d produced no result" i
          | Some (shared, own) ->
            check_int "shared ok" 0 (int_field "code" shared);
            check_string
              (Printf.sprintf "client %d shared report is byte-identical" i)
              expected
              (J.to_string (field "report" shared));
            check_int "own ok" 0 (int_field "code" own))
        results;
      (* Exactly one of the two racing shared compiles was a miss. *)
      let cached_flags =
        Array.to_list results
        |> List.map (function
             | Some (shared, _) -> bool_field "cached" shared
             | None -> false)
      in
      check_int "one hit, one miss on the shared request" 1
        (List.length (List.filter Fun.id cached_flags)))

(* --- robustness: supervision, budgets, persistence ------------------ *)

let diagnostic_message r =
  match field "diagnostics" r with
  | J.List (d :: _) -> (
    match J.member "message" d with Some (J.String m) -> m | _ -> "?")
  | _ -> "?"

let test_frame_cap () =
  let t = Serve.create ~max_frame_bytes:1024 () in
  let oversized =
    J.to_string (J.Obj (compile_req (sample_qasm ^ String.make 2000 ' ')))
  in
  let r = parse_response (Serve.handle_line t oversized) in
  check_int "frame-cap code" 124 (int_field "code" r);
  check_string "frame-cap kind" "protocol" (diagnostic_kind r);
  (* Small frames still work on the same daemon... *)
  let ok = rpc t (compile_req sample_qasm) in
  check_int "small frame still compiles" 0 (int_field "code" ok);
  (* ...and the rejection was counted. *)
  check_int "frame_rejects counted" 1 (Serve.stats t).Serve.frame_rejects

let test_allocation_budget () =
  (* The inject hook plays a compile that allocates far past the
     budget; [Gc.major] inside it makes the alarm's trip point
     deterministic instead of waiting for natural major-cycle
     pacing. *)
  let hungry () =
    let keep = ref [] in
    for _ = 1 to 64 do
      keep := Bytes.create (1024 * 1024) :: !keep
    done;
    Gc.major ();
    ignore (List.length !keep)
  in
  let t =
    Serve.create ~max_request_bytes:(8 * 1024 * 1024) ~inject:hungry ()
  in
  let r = rpc t (compile_req sample_qasm) in
  check_int "allocation-budget code" 125 (int_field "code" r);
  check_bool "message names the budget" true
    (let m = diagnostic_message r in
     String.length m >= 17
     &&
     let rec find i =
       i + 17 <= String.length m
       && (String.sub m i 17 = "allocation budget" || find (i + 1))
     in
     find 0);
  check_int "alloc_trips counted" 1 (Serve.stats t).Serve.alloc_trips;
  (* The daemon survived: the same request without the hungry inject
     compiles normally. *)
  let calm = Serve.create ~max_request_bytes:(256 * 1024 * 1024) () in
  check_int "modest request passes the budget" 0
    (int_field "code" (rpc calm (compile_req sample_qasm)))

let test_watchdog_abandons_wedged_requests () =
  let t =
    Serve.create ~max_deadline_seconds:0.1 ~watchdog_grace_seconds:0.1
      ~inject:(fun () -> Thread.delay 0.6)
      ()
  in
  let line =
    J.to_string (J.Obj (compile_req sample_qasm @ [ ("id", J.Int 9) ]))
  in
  let r = parse_response (Serve.handle_line_supervised t line) in
  check_int "watchdog code" 125 (int_field "code" r);
  check_int "id echoed on the supervisor's answer" 9 (int_field "id" r);
  check_bool "message names the watchdog" true
    (String.length (diagnostic_message r) >= 8
    && String.sub (diagnostic_message r) 0 8 = "watchdog");
  check_int "watchdog_trips counted" 1 (Serve.stats t).Serve.watchdog_trips;
  (* The daemon stays responsive while the abandoned worker drains. *)
  let ping = rpc t [ ("op", J.String "ping") ] in
  check_int "still answers" 0 (int_field "code" ping);
  (* Let the abandoned thread finish before the process exits. *)
  Thread.delay 0.7

let test_byte_budget_lru () =
  (* Probe one entry's charged size, then budget two entries plus
     slack: the third insert must evict exactly the least recently
     used one. *)
  let probe = Serve.create () in
  ignore (rpc probe (compile_req sample_qasm));
  let entry_bytes = (Serve.stats probe).Serve.resident_bytes in
  check_bool "probe entry has a size" true (entry_bytes > 0);
  let budget = (2 * entry_bytes) + 256 in
  let t = Serve.create ~max_cache_bytes:budget () in
  let source_b = sample_qasm ^ "x q[0];\n" in
  let source_c = sample_qasm ^ "z q[0];\n" in
  let compile s = bool_field "cached" (rpc t (compile_req s)) in
  check_bool "A misses" false (compile sample_qasm);
  check_bool "B misses" false (compile source_b);
  check_bool "A hits" true (compile sample_qasm);
  check_bool "C misses" false (compile source_c);
  let c = Serve.stats t in
  check_bool "byte budget evicted" true (c.Serve.evictions >= 1);
  check_bool "resident bytes within budget" true
    (c.Serve.resident_bytes <= budget);
  check_bool "B (the LRU entry) was the victim" false (compile source_b)

let temp_dir () =
  let path = Filename.temp_file "qsynth-serve-persist" "" in
  Sys.remove path;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let test_persistent_cache_warm_restart () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let first = Serve.create ~persist_dir:dir () in
      let miss = rpc first (compile_req sample_qasm) in
      check_bool "first daemon misses" false (bool_field "cached" miss);
      let spilled =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun n -> Filename.check_suffix n ".rpt")
      in
      check_int "one report spilled" 1 (List.length spilled);
      (* Plant a torn temp and a garbage report: a restart must sweep
         both and serve neither. *)
      let plant name text =
        let oc = open_out (Filename.concat dir name) in
        output_string oc text;
        close_out oc
      in
      plant ".tmp-999-stale.rpt" "{\"schema\":\"qsynth-serve-cache/v1\"";
      plant "deadbeef.rpt" "not json at all";
      let second = Serve.create ~persist_dir:dir () in
      let c = Serve.stats second in
      check_int "one entry warmed from disk" 1 c.Serve.warmed;
      check_bool "garbage was counted" true (c.Serve.persist_errors >= 1);
      check_bool "garbage report deleted" false
        (Sys.file_exists (Filename.concat dir "deadbeef.rpt"));
      check_bool "stale temp swept" false
        (Sys.file_exists (Filename.concat dir ".tmp-999-stale.rpt"));
      let hit = rpc second (compile_req sample_qasm) in
      check_bool "restarted daemon serves from the warmed cache" true
        (bool_field "cached" hit);
      check_string "warm report is byte-identical to the original miss"
        (J.to_string (field "report" miss))
        (J.to_string (field "report" hit)))

(* --- robustness: the socket layer ----------------------------------- *)

let connect_retry address retries =
  let rec go retries =
    match Serve.Client.connect address with
    | conn -> conn
    | exception _ when retries > 0 ->
      Thread.delay 0.02;
      go (retries - 1)
    | exception e -> raise e
  in
  go retries

(* Read one response line from a raw fd (for clients that never send
   anything, e.g. shed connections answered straight from the accept
   loop). *)
let read_line_fd fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
  in
  go ()

let with_server daemon f =
  let path = temp_socket_path () in
  let address = Serve.Unix_socket path in
  let server = Thread.create (fun () -> Serve.serve daemon address) () in
  let result =
    match
      (* Wait for the listener. *)
      Serve.Client.close (connect_retry address 100);
      f path address
    with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (* A one-worker, one-slot daemon sheds the shutdown request itself
     while a closed client's connection still holds the queue slot: it
     answers "overloaded", or closes before the request is even
     written, which surfaces here as an exception.  So retry until the
     daemon acknowledges, and join its thread only then: joining a
     daemon that never stopped would hang the suite instead of failing
     the test. *)
  let rec shutdown retries =
    let acknowledged =
      match
        let conn = connect_retry address 5 in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close conn)
          (fun () -> Serve.Client.request conn {|{"op":"shutdown"}|})
      with
      | line -> (
        match J.of_string line with
        | Ok j -> J.member "stopping" j = Some (J.Bool true)
        | Error _ -> false)
      | exception _ -> false
    in
    if acknowledged || retries = 0 then acknowledged
    else begin
      Thread.delay 0.05;
      shutdown (retries - 1)
    end
  in
  let acknowledged = shutdown 100 in
  if acknowledged then Thread.join server;
  (try Sys.remove path with Sys_error _ -> ());
  match result with
  | Error (e, backtrace) -> Printexc.raise_with_backtrace e backtrace
  | Ok _ when not acknowledged ->
    Alcotest.fail "daemon never acknowledged shutdown"
  | Ok v -> v

let test_worker_pool_stays_bounded () =
  (* The regression for the old grow-only [Thread.create] list: many
     short-lived connections through a 2-thread pool must leave no
     resident connection state behind — the open-connections gauge
     returns to (exactly the stats connection itself), and the pool
     served every one of them. *)
  let daemon = Serve.create ~max_workers:2 () in
  with_server daemon (fun _path address ->
      (* The with_server readiness probe is itself a connection; wait
         for it to be fully absorbed, then count deltas. *)
      let rec absorb retries =
        let c = Serve.stats daemon in
        if
          (c.Serve.open_connections = 0 && c.Serve.connections_served >= 1)
          || retries = 0
        then ()
        else begin
          Thread.delay 0.02;
          absorb (retries - 1)
        end
      in
      absorb 200;
      let base = (Serve.stats daemon).Serve.connections_served in
      for _ = 1 to 30 do
        let conn = connect_retry address 100 in
        let r = parse_response (Serve.Client.request conn {|{"op":"ping"}|}) in
        check_int "ping ok" 0 (int_field "code" r);
        Serve.Client.close conn
      done;
      (* EOF processing is asynchronous; poll the gauge down. *)
      let rec settle retries =
        let c = Serve.stats daemon in
        if
          (c.Serve.open_connections = 0
          && c.Serve.connections_served - base >= 30)
          || retries = 0
        then c
        else begin
          Thread.delay 0.02;
          settle (retries - 1)
        end
      in
      let c = settle 100 in
      check_int "every connection closed" 0 c.Serve.open_connections;
      check_int "every connection served" 30
        (c.Serve.connections_served - base))

let test_large_frame_is_linear () =
  (* A frame just under the default 4 MiB cap arrives in 8 KiB reads.
     Re-copying the pending bytes on every read made its cost quadratic:
     about 1 GB allocated for this one ping. *)
  let daemon = Serve.create () in
  with_server daemon (fun _path address ->
      let pad = String.make (4 * 1024 * 1024 - 100 * 1024) 'x' in
      let frame =
        J.to_string (J.Obj [ ("op", J.String "ping"); ("pad", J.String pad) ])
      in
      let conn = connect_retry address 100 in
      let before = Gc.allocated_bytes () in
      let r = parse_response (Serve.Client.request conn frame) in
      let grown = Gc.allocated_bytes () -. before in
      Serve.Client.close conn;
      check_int "large ping answered" 0 (int_field "code" r);
      check_bool
        (Printf.sprintf "%.0f MB allocated, under 64 MB" (grown /. 1e6))
        true (grown < 64e6))

let test_client_disconnect_is_clean () =
  (* The client hangs up between request and response: the daemon must
     absorb the EPIPE on the write and keep serving. *)
  let daemon = Serve.create ~inject:(fun () -> Thread.delay 0.2) () in
  with_server daemon (fun path address ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let line = J.to_string (J.Obj (compile_req sample_qasm)) ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.close fd;
      (* The compile is still in flight for ~0.2s; the daemon discovers
         the disconnect when it writes the response. *)
      let conn = connect_retry address 100 in
      let r = parse_response (Serve.Client.request conn {|{"op":"ping"}|}) in
      check_int "daemon survived the disconnect" 0 (int_field "code" r);
      Serve.Client.close conn;
      let rec settle retries =
        let c = Serve.stats daemon in
        if c.Serve.client_disconnects >= 1 || retries = 0 then c
        else begin
          Thread.delay 0.02;
          settle (retries - 1)
        end
      in
      check_bool "disconnect was counted" true
        ((settle 100).Serve.client_disconnects >= 1))

let test_overload_sheds () =
  (* One worker, one queue slot: a burst's third connection must be
     answered with a structured overload response, not queued without
     bound. *)
  let daemon =
    Serve.create ~max_workers:1 ~max_pending:1
      ~inject:(fun () -> Thread.delay 1.0)
      ()
  in
  with_server daemon (fun path address ->
      (* Wait until the single worker is idle again after the
         readiness probe, so the probe's connection cannot still be
         occupying the queue slot. *)
      let wait_for pred =
        let rec go retries =
          if pred (Serve.stats daemon) then ()
          else if retries = 0 then Alcotest.fail "daemon never settled"
          else begin
            Thread.delay 0.02;
            go (retries - 1)
          end
        in
        go 200
      in
      wait_for (fun c ->
          c.Serve.open_connections = 0 && c.Serve.connections_served >= 1);
      let base = (Serve.stats daemon).Serve.connections_served in
      let busy = connect_retry address 100 in
      let slow_result = ref None in
      let slow =
        Thread.create
          (fun () ->
            slow_result :=
              Some
                (Serve.Client.request busy
                   (J.to_string (J.Obj (compile_req sample_qasm)))))
          ()
      in
      (* The worker has picked the slow compile up once the served
         count moves; it now sleeps ~1s inside the inject hook. *)
      wait_for (fun c -> c.Serve.connections_served > base);
      Thread.delay 0.05;
      (* Occupies the only queue slot while the worker compiles. *)
      let queued = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect queued (Unix.ADDR_UNIX path);
      Thread.delay 0.15;
      (* Third connection: queue full, shed at the accept loop. *)
      let extra = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect extra (Unix.ADDR_UNIX path);
      let shed_line = read_line_fd extra in
      Unix.close extra;
      Unix.close queued;
      let r = parse_response shed_line in
      check_int "overloaded is a reported failure" 123 (int_field "code" r);
      check_string "status" "overloaded"
        (match field "status" r with J.String s -> s | _ -> "?");
      check_bool "retry_after_ms present" true
        (int_field "retry_after_ms" r > 0);
      Thread.join slow;
      (match !slow_result with
      | Some line ->
        check_int "the in-flight compile still completed" 0
          (int_field "code" (parse_response line))
      | None -> Alcotest.fail "slow client lost its response");
      Serve.Client.close busy;
      check_bool "shed counted" true ((Serve.stats daemon).Serve.shed >= 1))

let test_graceful_drain () =
  (* Shutdown during a slow in-flight compile: that request completes
     with a full response, the daemon then refuses new work and the
     serve call returns. *)
  let daemon = Serve.create ~inject:(fun () -> Thread.delay 0.3) () in
  let path = temp_socket_path () in
  let address = Serve.Unix_socket path in
  let server = Thread.create (fun () -> Serve.serve daemon address) () in
  Serve.Client.close (connect_retry address 100);
  let slow = connect_retry address 100 in
  let slow_result = ref None in
  let slow_thread =
    Thread.create
      (fun () ->
        slow_result :=
          Some
            (Serve.Client.request slow
               (J.to_string (J.Obj (compile_req sample_qasm)))))
      ()
  in
  Thread.delay 0.1;
  let ctl = connect_retry address 100 in
  let stop = parse_response (Serve.Client.request ctl {|{"op":"shutdown"}|}) in
  check_bool "shutdown acknowledged" true (bool_field "stopping" stop);
  Serve.Client.close ctl;
  Thread.join slow_thread;
  (match !slow_result with
  | Some line ->
    let r = parse_response line in
    check_int "in-flight compile completed through the drain" 0
      (int_field "code" r);
    check_bool "with a full report" true (J.member "report" r <> None)
  | None -> Alcotest.fail "slow client lost its response");
  Serve.Client.close slow;
  (* The serve call returns on its own... *)
  Thread.join server;
  (* ...and the socket is gone: new connections are refused. *)
  check_bool "new connections refused after drain" true
    (match Serve.Client.connect address with
    | conn ->
      Serve.Client.close conn;
      false
    | exception _ -> true);
  try Sys.remove path with Sys_error _ -> ()

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping and envelope" `Quick test_ping_and_envelope;
          Alcotest.test_case "compile matches one-shot" `Quick
            test_compile_matches_one_shot;
          Alcotest.test_case "malformed frames are misuse" `Quick
            test_malformed_frames_are_misuse;
          Alcotest.test_case "missing fields are reported failures" `Quick
            test_missing_fields_are_reported_failures;
          Alcotest.test_case "parse errors are reported failures" `Quick
            test_parse_errors_are_reported_failures;
          Alcotest.test_case "batch aggregates" `Quick test_batch_aggregates;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit and key sensitivity" `Quick
            test_cache_hit_and_key_sensitivity;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "zero capacity disables" `Quick
            test_zero_capacity_disables_caching;
          Alcotest.test_case "lookups count resolved consultations" `Quick
            test_lookups_count_resolved_consultations;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "stats snapshot is never torn" `Quick
            test_stats_snapshot_is_never_torn;
          Alcotest.test_case "parallel batch matches sequential" `Quick
            test_parallel_batch_matches_sequential;
          Alcotest.test_case "one compile per domain" `Quick
            test_one_compile_per_domain;
          Alcotest.test_case "compiles overlap across domains" `Quick
            test_compiles_overlap_across_domains;
          Alcotest.test_case "racing misses coalesce" `Quick
            test_racing_misses_coalesce;
          Alcotest.test_case "an uncached failure releases its waiters" `Quick
            test_uncached_failure_releases_waiters;
          Alcotest.test_case "stats reports jobs" `Quick
            test_stats_reports_jobs;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "frame cap rejects oversized lines" `Quick
            test_frame_cap;
          Alcotest.test_case "allocation budget trips to 125" `Quick
            test_allocation_budget;
          Alcotest.test_case "watchdog abandons wedged requests" `Quick
            test_watchdog_abandons_wedged_requests;
          Alcotest.test_case "byte-budgeted LRU" `Quick test_byte_budget_lru;
          Alcotest.test_case "persistent cache warm restart" `Quick
            test_persistent_cache_warm_restart;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "concurrent clients over loopback" `Quick
            test_concurrent_clients_loopback;
          Alcotest.test_case "worker pool stays bounded" `Quick
            test_worker_pool_stays_bounded;
          Alcotest.test_case "large frame costs linear memory" `Quick
            test_large_frame_is_linear;
          Alcotest.test_case "client disconnect is clean" `Quick
            test_client_disconnect_is_clean;
          Alcotest.test_case "overload sheds with retry_after_ms" `Quick
            test_overload_sheds;
          Alcotest.test_case "graceful drain completes in-flight work" `Quick
            test_graceful_drain;
        ] );
      ( "limits",
        [
          Alcotest.test_case "jobs past the domain cap" `Quick
            test_jobs_past_the_domain_cap;
        ] );
    ]
