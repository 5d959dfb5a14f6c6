(* The domain-parallel runner and the shared-state ownership rules it
   depends on: Parallel.map/map_list/init determinism and lowest-index
   failure propagation; the Trace named-counter mutex (many domains
   hammering one sink lose no bumps); QMDD manager isolation (domains
   compiling concurrently produce byte-identical reports and never
   observe each other's nodes); and Fuzz replay determinism (the same
   failure, seed and shrunk case at every --jobs value). *)

module J = Trace.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- the runner --- *)

let test_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f i = (i * 7919) mod 4093 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "map at jobs=%d equals Array.map" jobs)
        true
        (Parallel.map ~jobs f xs = expected))
    [ 1; 2; 4; 8 ];
  check_bool "empty input" true (Parallel.map ~jobs:4 f [||] = [||]);
  check_bool "single element" true (Parallel.map ~jobs:4 f [| 9 |] = [| f 9 |])

let test_map_list_and_init () =
  let xs = List.init 33 (fun i -> i) in
  let f i = i * i in
  check_bool "map_list preserves order" true
    (Parallel.map_list ~jobs:4 f xs = List.map f xs);
  check_bool "init matches Array.init" true
    (Parallel.init ~jobs:4 33 f = Array.init 33 f)

let test_lowest_index_failure_wins () =
  (* Several tasks raise; the runner must re-raise the exception of the
     lowest-indexed failing task, exactly as a sequential
     left-to-right loop would. *)
  let f i = if i >= 3 && i mod 2 = 1 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs f (Array.init 20 (fun i -> i)) with
      | _ -> Alcotest.fail "expected a raise"
      | exception Failure msg ->
        check_string
          (Printf.sprintf "lowest failing index at jobs=%d" jobs)
          "3" msg)
    [ 1; 2; 8 ]

(* --- the Trace named-counter mutex (satellite bugfix) --- *)

let test_trace_bump_hammer () =
  (* Pre-fix, Trace.bump mutated an unsynchronized Hashtbl; four
     domains incrementing the same counters lost updates (or crashed).
     Post-fix the totals are exact. *)
  let sink = Trace.create () in
  let domains = 4 and per_domain = 25_000 in
  ignore
    (Parallel.init ~jobs:domains domains (fun d ->
         for _ = 1 to per_domain do
           Trace.bump sink "cache.hits" 1.0;
           if d mod 2 = 0 then Trace.bump sink "cache.misses" 2.0
         done));
  let totals = Trace.counter_totals sink in
  let total name =
    match List.assoc_opt name totals with Some v -> v | None -> 0.0
  in
  check_bool "hits exact" true
    (total "cache.hits" = float_of_int (domains * per_domain));
  check_bool "misses exact" true
    (total "cache.misses" = float_of_int (domains / 2 * per_domain * 2))

(* --- QMDD manager isolation --- *)

let sample_qasm =
  "OPENQASM 2.0;\n\
   include \"qelib1.inc\";\n\
   qreg q[3];\n\
   h q[0];\n\
   cx q[0],q[1];\n\
   cx q[1],q[2];\n\
   t q[2];\n"

let scrubbed_report_json source =
  let device = Device.find "ibmqx4" in
  let options = Compiler.default_options ~device in
  match Compiler.parse_source_checked ~format:"qasm" source with
  | Error d -> Alcotest.failf "parse failed: %s" (Diagnostic.to_string d)
  | Ok input -> (
    match Compiler.compile_checked options input with
    | Error ds ->
      Alcotest.failf "compile failed: %s"
        (String.concat "; " (List.map Diagnostic.to_string ds))
    | Ok report -> (
      match Compiler.report_to_json report with
      | J.Obj fields ->
        J.to_string
          (J.Obj
             (List.map
                (fun (k, v) ->
                  match k with
                  | "elapsed_seconds" | "verification_seconds" -> (k, J.Null)
                  | _ -> (k, v))
                fields))
      | other -> J.to_string other))

let test_concurrent_compiles_are_byte_identical () =
  (* Two domains compiling different sources at once: each compile owns
     its QMDD manager, so the reports are byte-identical to the
     sequential ones (timings scrubbed on both sides). *)
  let sources =
    [| sample_qasm; sample_qasm ^ "x q[0];\n"; sample_qasm ^ "z q[1];\n" |]
  in
  let sequential = Array.map scrubbed_report_json sources in
  let parallel = Parallel.map ~jobs:3 scrubbed_report_json sources in
  Array.iteri
    (fun i seq ->
      check_string
        (Printf.sprintf "report %d byte-identical" i)
        seq parallel.(i))
    sequential

let test_qmdd_stats_never_see_other_domains () =
  (* Each domain builds a diagram in its own manager; the stats it
     reads must be exactly what a solo run of the same build records —
     any cross-domain sharing of the unique table or caches would
     perturb the node counts. *)
  let build i =
    let m = Qmdd.create ~n:3 in
    let circuit =
      Circuit.make ~n:3
        [
          Gate.H 0;
          Gate.Cnot { control = 0; target = 1 };
          Gate.Cnot { control = 1; target = (2 - (i mod 2)) };
          Gate.T (i mod 3);
        ]
    in
    ignore (Qmdd.of_circuit m circuit);
    let s = Qmdd.stats m in
    (s.Qmdd.allocated, s.Qmdd.unique_nodes, s.Qmdd.peak_unique_nodes)
  in
  let solo = Array.init 8 build in
  let together = Parallel.init ~jobs:4 8 build in
  Array.iteri
    (fun i (a, u, p) ->
      let a', u', p' = together.(i) in
      check_int (Printf.sprintf "allocated %d" i) a a';
      check_int (Printf.sprintf "unique %d" i) u u';
      check_int (Printf.sprintf "peak %d" i) p p')
    solo

(* --- Fuzz replay determinism (satellite bugfix) --- *)

(* A synthetic property whose verdict depends only on the case payload:
   the generator draws one integer from the per-case RNG state, and the
   check fails when that integer hits a residue class.  Which case index
   fails first is therefore a pure function of the run seed — exactly
   what the jobs-independence guarantee must preserve. *)
let synthetic_property =
  {
    Fuzz.Property.name = "synthetic-residue";
    doc = "fails when the drawn integer is divisible by 7";
    paper = "test-only";
    gen =
      (fun _config st ->
        Fuzz.Source_case
          { ext = "txt"; text = string_of_int (Random.State.int st 1000) });
    check =
      (fun case ->
        match case with
        | Fuzz.Source_case { text; _ } -> (
          match int_of_string_opt (String.trim text) with
          | Some v when v mod 7 = 0 ->
            Fuzz.Property.Fail (Printf.sprintf "residue hit: %d" v)
          | _ -> Fuzz.Property.Pass)
        | _ -> Fuzz.Property.Pass);
  }

let failure_view (f : Fuzz.failure) =
  ( f.Fuzz.property,
    f.Fuzz.seed,
    Fuzz.case_to_string f.Fuzz.case,
    Fuzz.case_to_string f.Fuzz.shrunk,
    f.Fuzz.message,
    f.Fuzz.shrink_steps )

let run_synthetic ~jobs =
  match Fuzz.run ~seed:11 ~count:200 ~jobs [ synthetic_property ] with
  | [ summary ] -> (summary.Fuzz.cases, List.map failure_view summary.Fuzz.failures)
  | other -> Alcotest.failf "expected one summary, got %d" (List.length other)

let test_fuzz_jobs_replay_determinism () =
  let seq_cases, seq_failures = run_synthetic ~jobs:1 in
  check_bool "the synthetic property does fail" true (seq_failures <> []);
  List.iter
    (fun jobs ->
      let cases, failures = run_synthetic ~jobs in
      check_int (Printf.sprintf "cases at jobs=%d" jobs) seq_cases cases;
      check_bool
        (Printf.sprintf "identical failure at jobs=%d" jobs)
        true
        (failures = seq_failures))
    [ 2; 8 ];
  (* The reported seed really replays: regenerate the case from it and
     re-check. *)
  match seq_failures with
  | (_, seed, case_text, _, _, _) :: _ ->
    let regenerated =
      synthetic_property.Fuzz.Property.gen Fuzz.default_config
        (Random.State.make [| seed |])
    in
    check_string "replay seed regenerates the failing case" case_text
      (Fuzz.case_to_string regenerated);
    (match synthetic_property.Fuzz.Property.check regenerated with
    | Fuzz.Property.Fail _ -> ()
    | Fuzz.Property.Pass -> Alcotest.fail "replayed case must still fail")
  | [] -> Alcotest.fail "unreachable: failure list checked non-empty above"

(* --- the runtime's domain cap --- *)

let test_jobs_past_the_domain_cap () =
  (* OCaml caps a process at 128 domains.  Spawning one domain per job
     raised "failed to allocate domain" out of [map] while the early
     tasks still ran; the map now runs on the domains it could get.
     Registered last: idle domains would slow every later test. *)
  check_bool "200 jobs return every result in order" true
    (Parallel.init ~jobs:200 200 (fun i ->
         Unix.sleepf 0.05;
         i)
    = Array.init 200 Fun.id)

let () =
  Alcotest.run "parallel"
    [
      ( "runner",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "map_list and init" `Quick test_map_list_and_init;
          Alcotest.test_case "lowest-index failure wins" `Quick
            test_lowest_index_failure_wins;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "trace bump hammer" `Quick test_trace_bump_hammer;
          Alcotest.test_case "concurrent compiles byte-identical" `Quick
            test_concurrent_compiles_are_byte_identical;
          Alcotest.test_case "qmdd stats stay domain-local" `Quick
            test_qmdd_stats_never_see_other_domains;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "replay determinism across jobs" `Quick
            test_fuzz_jobs_replay_determinism;
        ] );
      ( "limits",
        [
          Alcotest.test_case "jobs past the domain cap" `Quick
            test_jobs_past_the_domain_cap;
        ] );
    ]
