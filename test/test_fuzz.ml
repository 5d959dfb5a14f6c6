(* Fixed-seed exercise of the fuzz subsystem: the whole property
   library at a modest count (fast enough for every `dune runtest`),
   the shrinker's contract on a synthetic failure, replay of the
   committed repro corpus, and the determinism the replay workflow
   rests on.  Open-ended fuzzing lives in `qsc fuzz` and the nightly CI
   job; this suite pins the engine itself. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_all_properties_fixed_seed () =
  (* Seed 42, 25 cases per property — a clean tree must be all green.
     Failures print with their replay seed via the Alcotest message. *)
  let summaries = Fuzz.run ~seed:42 ~count:25 Fuzz.Property.all in
  check_int "every property ran" (List.length Fuzz.Property.all)
    (List.length summaries);
  List.iter
    (fun (s : Fuzz.summary) ->
      check_int (s.Fuzz.property ^ " cases") 25 s.Fuzz.cases;
      match s.Fuzz.failures with
      | [] -> ()
      | f :: _ -> Alcotest.failf "%s" (Fuzz.failure_to_string f))
    summaries;
  check_bool "failed = false" false (Fuzz.failed summaries)

let test_runs_are_deterministic () =
  (* Same seed, same everything — the foundation of the replay
     contract.  Compare the drawn cases themselves, not just verdicts. *)
  let draw () =
    List.map
      (fun (p : Fuzz.Property.t) ->
        List.init 5 (fun i ->
            Fuzz.case_to_string
              (Fuzz.Gen.run ~seed:(1000 + i) (p.Fuzz.Property.gen Fuzz.default_config))))
      Fuzz.Property.all
  in
  check_bool "same seed draws the same cases" true (draw () = draw ())

let test_no_temp_file_leak () =
  (* compile-checked-total writes every mutated source to a temp file
     and serve-protocol binds a temp socket path per loopback case;
     both clean up on every exit path (Fun.protect).  Count matching
     names in the temp directory around a fixed-seed run — any leak
     shows up as growth. *)
  let prefixes = [ "qsynth-fuzz"; "qsynth-serve" ] in
  let count () =
    let matches name =
      List.exists
        (fun p ->
          String.length name >= String.length p
          && String.sub name 0 (String.length p) = p)
        prefixes
    in
    Array.fold_left
      (fun acc name -> if matches name then acc + 1 else acc)
      0
      (Sys.readdir (Filename.get_temp_dir_name ()))
  in
  let props =
    List.filter
      (fun (p : Fuzz.Property.t) ->
        List.mem p.Fuzz.Property.name
          [ "compile-checked-total"; "serve-protocol" ])
      Fuzz.Property.all
  in
  check_int "both properties found" 2 (List.length props);
  let before = count () in
  let summaries = Fuzz.run ~seed:11 ~count:20 props in
  check_bool "run is clean" false (Fuzz.failed summaries);
  check_int "no temp files leaked" before (count ())

let test_shrinker_minimizes () =
  (* A synthetic failure — "contains a CNOT" — must shrink to a single
     CNOT on a 2-qubit register no matter how large the seed case is. *)
  let has_cnot = function
    | Fuzz.Circuit_case { circuit; _ } ->
      List.exists
        (function Gate.Cnot _ -> true | _ -> false)
        (Circuit.gates circuit)
    | _ -> false
  in
  let check case =
    if has_cnot case then Fuzz.Property.Fail "contains a CNOT"
    else Fuzz.Property.Pass
  in
  let big =
    Circuit.make ~n:6
      [
        Gate.H 0;
        Gate.T 5;
        Gate.Cnot { control = 2; target = 4 };
        Gate.X 1;
        Gate.Cnot { control = 0; target = 3 };
        Gate.Ry (1.25, 2);
      ]
  in
  let case = Fuzz.Circuit_case { circuit = big; device = None; budget = None } in
  let shrunk, steps = Fuzz.shrink ~check case in
  check_bool "some reductions applied" true (steps > 0);
  match shrunk with
  | Fuzz.Circuit_case { circuit; _ } ->
    check_int "one gate left" 1 (Circuit.gate_count circuit);
    check_int "register compacted to 2" 2 (Circuit.n_qubits circuit);
    check_bool "still failing" true (check shrunk = Fuzz.Property.Fail "contains a CNOT")
  | _ -> Alcotest.fail "shrink changed the case kind"

let test_repro_roundtrip () =
  (* repro_to_string / repro_of_string is a faithful round trip for
     every case kind the shrinker can emit. *)
  let failure case =
    {
      Fuzz.property = "qc-roundtrip";
      seed = 12345;
      case;
      shrunk = case;
      message = "synthetic";
      shrink_steps = 0;
    }
  in
  let circuit_case =
    Fuzz.Circuit_case
      {
        circuit = Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ];
        device = Some Device.Ibm.ibmqx4;
        budget = Some 3;
      }
  in
  List.iter
    (fun case ->
      let text = Fuzz.repro_to_string (failure case) in
      match Fuzz.repro_of_string text with
      | Error e -> Alcotest.failf "unreadable repro: %s" e
      | Ok (property, seed, parsed) ->
        check_bool "property survives" true (property = "qc-roundtrip");
        check_int "seed survives" 12345 seed;
        check_bool "case survives" true
          (Fuzz.case_to_string parsed = Fuzz.case_to_string case))
    [
      circuit_case;
      Fuzz.Optimize_case
        {
          circuit = Circuit.make ~n:2 [ Gate.T 0; Gate.Cnot { control = 1; target = 0 } ];
          device = Some Device.Ibm.ibmqx4;
          cost = Cost.t_weighted;
          rules = Rewrite.empty_selection;
        };
      Fuzz.Optimize_case
        {
          circuit = Circuit.make ~n:1 [ Gate.Rz (0.25, 0) ];
          device = None;
          cost = Cost.eqn2;
          rules = Rewrite.default_selection;
        };
      (* Any linear cost reads back, whatever its weights. *)
      Fuzz.Optimize_case
        {
          circuit = Circuit.make ~n:1 [ Gate.T 0 ];
          device = None;
          cost = Cost.Linear { t = 0.1; cnot = 1e-300; gate = -10.0 };
          rules = Rewrite.default_selection;
        };
      Fuzz.Source_case { ext = ".qasm"; text = "OPENQASM 2.0;\nqreg q[1];\n" };
      Fuzz.Fault_case
        {
          circuit = Circuit.make ~n:3 [ Gate.mct [ 0; 2 ] 1 ];
          fault =
            Some
              ( { Faultinject.stage = Diagnostic.Expand_swaps;
                  fault = Faultinject.Truncate },
                739 );
        };
      Fuzz.Fault_case { circuit = Circuit.make ~n:1 [ Gate.X 0 ]; fault = None };
      Fuzz.Options_case
        {
          circuit =
            Circuit.make ~n:2 [ Gate.T 1; Gate.Cnot { control = 0; target = 1 } ];
          device = Device.Ibm.ibmqx4;
          draw = [| 1; 0; 4; 2; 1; 1; 0; 1; 1; 0; 1; 2; 2; 1; 1; 2; 1 |];
        };
    ]

let test_corpus_replays_clean () =
  (* Every committed repro is a fuzz-found bug that has since been
     fixed; its property must now Pass on the stored shrunk case. *)
  let dir = "corpus/fuzz" in
  let repros =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
  in
  check_bool "corpus is non-empty" true (repros <> []);
  List.iter
    (fun f ->
      let text =
        In_channel.with_open_text (Filename.concat dir f) In_channel.input_all
      in
      match Fuzz.repro_of_string text with
      | Error e -> Alcotest.failf "%s: unreadable: %s" f e
      | Ok (property, _seed, case) -> (
        match Fuzz.replay ~property case with
        | Error e -> Alcotest.failf "%s: %s" f e
        | Ok Fuzz.Property.Pass -> ()
        | Ok (Fuzz.Property.Fail msg) ->
          Alcotest.failf "%s: still failing: %s" f msg))
    repros

let () =
  Alcotest.run "fuzz"
    [
      ( "engine",
        [
          Alcotest.test_case "all properties, fixed seed" `Quick
            test_all_properties_fixed_seed;
          Alcotest.test_case "deterministic generation" `Quick
            test_runs_are_deterministic;
          Alcotest.test_case "no temp-file leak" `Quick test_no_temp_file_leak;
          Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
          Alcotest.test_case "repro round-trips" `Quick test_repro_roundtrip;
          Alcotest.test_case "repro corpus replays clean" `Quick
            test_corpus_replays_clean;
        ] );
    ]
