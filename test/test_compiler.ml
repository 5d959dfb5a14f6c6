let check_bool = Alcotest.(check bool)

let toffoli_cascade =
  Circuit.make ~n:3
    [
      Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
      Gate.Cnot { control = 0; target = 1 };
      Gate.X 0;
    ]

let compile_to device input =
  Compiler.compile (Compiler.default_options ~device) input

let assert_valid_output device (r : Compiler.report) =
  check_bool "native gates only" true (Circuit.uses_only_native r.optimized);
  check_bool "legal on device" true (Lint.is_device_legal device r.optimized);
  check_bool "verified" true (r.verification = Compiler.Verified);
  check_bool "optimized not worse" true
    (r.optimized_cost <= r.unoptimized_cost)

let test_quantum_to_ibmqx2 () =
  let device = Device.Ibm.ibmqx2 in
  let r = compile_to device (Compiler.Quantum toffoli_cascade) in
  assert_valid_output device r;
  (* 5-qubit device: also confirm with the dense simulator. *)
  check_bool "dense-simulator equivalent" true
    (Sim.equivalent ~up_to_phase:false r.Compiler.reference r.Compiler.optimized)

let test_quantum_to_all_small_devices () =
  List.iter
    (fun device ->
      let r = compile_to device (Compiler.Quantum toffoli_cascade) in
      assert_valid_output device r)
    Device.Ibm.all

let test_classical_front_end () =
  let pla = Qformats.Pla.of_string ".i 2\n.o 1\n11 1\n.e\n" in
  let device = Device.Ibm.ibmqx4 in
  let r = compile_to device (Compiler.Classical pla) in
  assert_valid_output device r;
  (* The reference is the front-end cascade; the mapped circuit must
     compute AND on wire 2 like the cascade does. *)
  check_bool "reference computes AND" true
    (Sim.truth_table r.Compiler.reference ~inputs:[ 0; 1 ] ~output:2
    = [| false; false; false; true |])

let test_simulator_target_identity_mapping () =
  (* Mapping a native circuit to the simulator leaves it essentially
     unchanged (Table 3's technology-independent column). *)
  let c =
    Circuit.make ~n:3
      [ Gate.H 0; Gate.T 1; Gate.Cnot { control = 2; target = 0 } ]
  in
  let device = Device.simulator ~n_qubits:3 in
  let r = compile_to device (Compiler.Quantum c) in
  check_bool "no expansion on simulator" true
    (Circuit.gate_count r.Compiler.optimized <= Circuit.gate_count c);
  check_bool "verified" true (r.Compiler.verification = Compiler.Verified)

let test_mct_needs_room () =
  (* A T4 gate on a full simulator register cannot decompose; on a
     bigger device it can. *)
  let mct = Circuit.make ~n:4 [ Gate.mct [ 0; 1; 2 ] 3 ] in
  (match
     compile_to (Device.simulator ~n_qubits:4) (Compiler.Quantum mct)
   with
  | exception Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected Compile_error for full register");
  let r = compile_to (Device.simulator ~n_qubits:5) (Compiler.Quantum mct) in
  check_bool "verified with borrowed qubit" true
    (r.Compiler.verification = Compiler.Verified)

let test_too_big_rejected () =
  match
    compile_to Device.Ibm.ibmqx2 (Compiler.Quantum (Circuit.empty 9))
  with
  | exception Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected Compile_error for oversized circuit"

let test_verification_catches_skip () =
  let opts =
    { (Compiler.default_options ~device:Device.Ibm.ibmqx2) with
      Compiler.verification = Compiler.Skip
    }
  in
  let r = opts |> fun o -> Compiler.compile o (Compiler.Quantum toffoli_cascade) in
  check_bool "skipped" true (r.Compiler.verification = Compiler.Skipped)

let test_verification_catches_injected_bug () =
  (* Failure injection: compile without verification, corrupt the
     output, then run the same QMDD check the compiler uses — it must
     report inequivalence.  This is what stands between a buggy
     optimizer and silently wrong QASM. *)
  let device = Device.Ibm.ibmqx2 in
  let opts =
    { (Compiler.default_options ~device) with Compiler.verification = Compiler.Skip }
  in
  let r = Compiler.compile opts (Compiler.Quantum toffoli_cascade) in
  let corrupted = Circuit.append r.Compiler.optimized (Gate.T 0) in
  check_bool "extra T detected" false
    (Qmdd.equivalent ~up_to_phase:false r.Compiler.reference corrupted);
  (* Dropping a gate is detected too. *)
  let dropped =
    match List.rev (Circuit.gates r.Compiler.optimized) with
    | _ :: rest -> Circuit.make ~n:5 (List.rev rest)
    | [] -> Alcotest.fail "empty output"
  in
  check_bool "dropped gate detected" false
    (Qmdd.equivalent ~up_to_phase:false r.Compiler.reference dropped)

let test_tracking_router_option () =
  let device = Device.Ibm.ibmqx3 in
  let c =
    Circuit.make ~n:16
      [
        Gate.Cnot { control = 5; target = 10 };
        Gate.Cnot { control = 5; target = 10 };
        Gate.H 5;
      ]
  in
  let compile router =
    Compiler.compile
      { (Compiler.default_options ~device) with Compiler.router }
      (Compiler.Quantum c)
  in
  let ctr = compile Compiler.Ctr in
  let tracking = compile Compiler.Tracking in
  check_bool "both verified" true
    (ctr.Compiler.verification = Compiler.Verified
    && tracking.Compiler.verification = Compiler.Verified);
  check_bool "tracking not worse here" true
    (tracking.Compiler.optimized_cost <= ctr.Compiler.optimized_cost)

let test_emit_qasm () =
  let r = compile_to Device.Ibm.ibmqx2 (Compiler.Quantum toffoli_cascade) in
  let qasm = Compiler.emit_qasm r in
  let parsed = Qformats.Qasm.of_string qasm in
  check_bool "emitted QASM parses back to the output circuit" true
    (Circuit.equal parsed r.Compiler.optimized)

let test_report_rendering () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with Compiler.use_placement = true }
  in
  let r = Compiler.compile opts (Compiler.Quantum toffoli_cascade) in
  let text = Format.asprintf "%a" Compiler.pp_report r in
  let contains sub =
    let n = String.length text and k = String.length sub in
    let rec scan i = i + k <= n && (String.sub text i k = sub || scan (i + 1)) in
    scan 0
  in
  check_bool "mentions cost" true (contains "cost=");
  check_bool "mentions depth" true (contains "depth=");
  check_bool "mentions verification" true (contains "verification");
  check_bool "all verification strings distinct" true
    (List.length
       (List.sort_uniq String.compare
          (List.map Compiler.verification_to_string
             [
               Compiler.Verified; Compiler.Verified_staged; Compiler.Mismatch;
               Compiler.Budget_exceeded; Compiler.Skipped;
             ]))
    = 5)

let test_extension () =
  let check_ext path expected =
    Alcotest.(check string) path expected (Compiler.extension path)
  in
  check_ext "adder.qasm" ".qasm";
  check_ext "adder.QASM" ".qasm";
  check_ext "adder" "";
  (* Dots in directory names must not leak into the extension. *)
  check_ext "dir.v2/adder" "";
  check_ext "dir.v2/adder.qasm" ".qasm";
  check_ext "/runs.2026/out/adder.qc" ".qc";
  check_ext "a.b.real" ".real";
  check_ext "." ".";
  check_ext "dir.v2/" ""

let test_parse_file_in_dotted_dir () =
  (* Regression: a dotted directory used to swallow the dispatch — the
     "extension" of runs.v2/a became ".v2/a". *)
  let dir = Filename.temp_file "qsynth" ".v2" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let qc_path = Filename.concat dir "a.qc" in
  Testutil.write_file qc_path (Qformats.Qc.to_string toffoli_cascade);
  (match Compiler.parse_file qc_path with
  | Compiler.Quantum c ->
    check_bool "qc parsed from dotted dir" true (Circuit.equal c toffoli_cascade)
  | Compiler.Classical _ -> Alcotest.fail "expected Quantum");
  let bare = Filename.concat dir "adder" in
  Out_channel.with_open_text bare (fun oc -> output_string oc "junk");
  (match Compiler.parse_file bare with
  | exception Compiler.Compile_error msg ->
    let contains sub =
      let k = String.length sub and n = String.length msg in
      let rec scan i = i + k <= n && (String.sub msg i k = sub || scan (i + 1)) in
      scan 0
    in
    check_bool "reports empty extension" true (contains "extension \"\"");
    check_bool "not the directory suffix" false (contains "extension \".v2");
  | _ -> Alcotest.fail "expected unsupported extension error");
  Sys.remove bare;
  Sys.remove qc_path;
  Unix.rmdir dir

let test_pp_report_placement_truncation () =
  (* A 16-qubit rotation placement moves every qubit; the report shows
     the first 12 pairs and must say how many it hid. *)
  let n = 16 in
  let placement = Array.init n (fun i -> (i + 1) mod n) in
  let c = Circuit.empty n in
  let r =
    {
      Compiler.reference = c;
      placement = Some placement;
      unoptimized = c;
      optimized = c;
      unoptimized_cost = 0.0;
      optimized_cost = 0.0;
      percent_decrease = 0.0;
      verification = Compiler.Skipped;
      degraded = [];
      diagnostics = [];
      elapsed_seconds = 0.0;
      verification_seconds = 0.0;
      trace = [];
    }
  in
  let text = Format.asprintf "%a" Compiler.pp_report r in
  let contains sub =
    let k = String.length sub and n = String.length text in
    let rec scan i = i + k <= n && (String.sub text i k = sub || scan (i + 1)) in
    scan 0
  in
  check_bool "prints the leading pairs" true (contains "q0->q1");
  check_bool "announces the hidden pairs" true (contains "(+4 more)");
  (* A small placement prints in full, with no truncation marker. *)
  let small =
    { r with Compiler.placement = Some [| 1; 0; 2; 3; 4 |] }
  in
  let text_small = Format.asprintf "%a" Compiler.pp_report small in
  check_bool "no marker when everything fits" true
    (not
       (let k = String.length "more)" and n = String.length text_small in
        let rec scan i =
          i + k <= n && (String.sub text_small i k = "more)" || scan (i + 1))
        in
        scan 0))

let test_trace_spans_cover_pipeline () =
  let device = Device.Ibm.ibmqx4 in
  let trace = Trace.create () in
  let r =
    Compiler.compile ~trace
      (Compiler.default_options ~device)
      (Compiler.Quantum toffoli_cascade)
  in
  let names = List.map (fun sp -> sp.Trace.name) r.Compiler.trace in
  List.iter
    (fun stage ->
      check_bool (stage ^ " span present") true (List.mem stage names))
    [ "front-end"; "pre-optimize"; "decompose"; "route"; "expand-swaps";
      "post-optimize"; "verify" ];
  (* The last post-optimize snapshot agrees with the reported output. *)
  let final =
    List.find (fun sp -> sp.Trace.name = "post-optimize") r.Compiler.trace
  in
  (match final.Trace.after with
  | Some s ->
    check_bool "trace matches report" true
      (s.Trace.gate_volume = Circuit.gate_count r.Compiler.optimized)
  | None -> Alcotest.fail "post-optimize span has no after snapshot");
  (* Compiling without a sink records nothing. *)
  let bare =
    Compiler.compile
      (Compiler.default_options ~device)
      (Compiler.Quantum toffoli_cascade)
  in
  check_bool "no trace by default" true (bare.Compiler.trace = [])

let test_report_to_json () =
  let device = Device.Ibm.ibmqx4 in
  let trace = Trace.create () in
  let r =
    Compiler.compile ~trace
      (Compiler.default_options ~device)
      (Compiler.Quantum toffoli_cascade)
  in
  let doc =
    Compiler.report_to_json
      ~meta:[ ("name", Trace.Json.String "toffoli") ]
      r
  in
  match Trace.Json.of_string (Trace.Json.to_string ~pretty:true doc) with
  | Error msg -> Alcotest.failf "report JSON does not parse: %s" msg
  | Ok doc ->
    check_bool "meta first" true
      (Trace.Json.member "name" doc = Some (Trace.Json.String "toffoli"));
    check_bool "verification tag" true
      (Trace.Json.member "verification" doc
      = Some (Trace.Json.String "verified"));
    (match Trace.Json.member "optimized" doc with
    | Some opt ->
      check_bool "optimized gate volume" true
        (Option.bind (Trace.Json.member "gate_volume" opt) Trace.Json.number
        = Some (float_of_int (Circuit.gate_count r.Compiler.optimized)))
    | None -> Alcotest.fail "optimized object missing");
    (match Trace.Json.member "passes" doc with
    | Some (Trace.Json.List passes) ->
      check_bool "every span serialized" true
        (List.length passes = List.length r.Compiler.trace)
    | _ -> Alcotest.fail "passes missing")

let test_parse_file_dispatch () =
  let dir = Filename.temp_file "qsynth" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let qc_path = Filename.concat dir "a.qc" in
  Testutil.write_file qc_path (Qformats.Qc.to_string toffoli_cascade);
  (match Compiler.parse_file qc_path with
  | Compiler.Quantum c ->
    check_bool "qc parsed" true (Circuit.equal c toffoli_cascade)
  | Compiler.Classical _ -> Alcotest.fail "expected Quantum");
  let pla_path = Filename.concat dir "f.pla" in
  Testutil.write_file pla_path ".i 2\n.o 1\n11 1\n.e\n";
  (match Compiler.parse_file pla_path with
  | Compiler.Classical _ -> ()
  | Compiler.Quantum _ -> Alcotest.fail "expected Classical");
  (match Compiler.parse_file (Filename.concat dir "x.unknown") with
  | exception Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected unsupported extension error");
  Sys.remove qc_path;
  Sys.remove pla_path;
  Unix.rmdir dir

let test_parse_source_dispatch () =
  (* The in-memory mirror of [parse_file_checked]: same parsers, no
     temp files, format named explicitly (dot and case optional). *)
  let qc_text = Qformats.Qc.to_string toffoli_cascade in
  (match Compiler.parse_source_checked ~format:".QC" qc_text with
  | Ok (Compiler.Quantum c) ->
    check_bool "qc parsed from memory" true (Circuit.equal c toffoli_cascade)
  | Ok (Compiler.Classical _) -> Alcotest.fail "expected Quantum"
  | Error d -> Alcotest.failf "qc rejected: %s" (Diagnostic.to_string d));
  (match
     Compiler.parse_source_checked ~format:"pla" ".i 2\n.o 1\n11 1\n.e\n"
   with
  | Ok (Compiler.Classical _) -> ()
  | Ok (Compiler.Quantum _) -> Alcotest.fail "expected Classical"
  | Error d -> Alcotest.failf "pla rejected: %s" (Diagnostic.to_string d));
  (match Compiler.parse_source_checked ~format:"tarot" "anything" with
  | Error d -> check_bool "unsupported kind" true (d.Diagnostic.kind = Diagnostic.Unsupported)
  | Ok _ -> Alcotest.fail "expected unsupported-format error");
  match
    Compiler.parse_source_checked ~format:"qasm" ~path:"req.qasm"
      "OPENQASM 2.0;\nqreg q[1];\nbogus q[0];\n"
  with
  | Error d ->
    check_bool "parse kind" true (d.Diagnostic.kind = Diagnostic.Parse);
    check_bool "path surfaces in the diagnostic" true
      (d.Diagnostic.file = Some "req.qasm")
  | Ok _ -> Alcotest.fail "expected parse error"

let test_content_digests () =
  let device = Device.Ibm.ibmqx4 in
  let options = Compiler.default_options ~device in
  (* Digests are stable functions of content... *)
  check_bool "source digest stable" true
    (Compiler.source_digest "abc" = Compiler.source_digest "abc");
  check_bool "device digest stable" true
    (Compiler.device_digest device = Compiler.device_digest Device.Ibm.ibmqx4);
  check_bool "options digest stable" true
    (Compiler.options_digest options = Compiler.options_digest options);
  (* ...and sensitive to every semantic change. *)
  check_bool "source digest sensitive" true
    (Compiler.source_digest "abc" <> Compiler.source_digest "abd");
  check_bool "device digest sensitive" true
    (Compiler.device_digest device
    <> Compiler.device_digest Device.Ibm.ibmqx5);
  check_bool "options digest sensitive to flags" true
    (Compiler.options_digest options
    <> Compiler.options_digest { options with Compiler.post_optimize = false });
  check_bool "options digest sensitive to budgets" true
    (Compiler.options_digest options
    <> Compiler.options_digest
         {
           options with
           Compiler.budgets =
             { Compiler.no_budgets with Compiler.deadline_seconds = Some 1.0 };
         });
  (* The canonical rendering is explicit about what it covers. *)
  let canon = Compiler.canonical_options options in
  let names needle =
    let n = String.length canon and m = String.length needle in
    let rec scan i =
      i + m <= n && (String.sub canon i m = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun key ->
      check_bool
        (Printf.sprintf "canonical form names %s" key)
        true
        (names (key ^ "=")))
    [ "cost"; "router"; "verification"; "deadline_seconds"; "swap_budget" ];
  (* Every field is data the digest covers: options that differ from
     the default in one field alone all get distinct digests. *)
  let budgets f = { options with Compiler.budgets = f Compiler.no_budgets } in
  let verification v = { options with Compiler.verification = v } in
  let variants =
    [
      ("default", options);
      ("cost", { options with Compiler.cost = Cost.gate_volume });
      ("router tracking", { options with Compiler.router = Compiler.Tracking });
      ( "router weighted",
        { options with
          Compiler.router = Compiler.Weighted_ctr (Calibration.synthetic device)
        } );
      ("pre_optimize", { options with Compiler.pre_optimize = false });
      ("post_optimize", { options with Compiler.post_optimize = false });
      ("fold_states", { options with Compiler.fold_states = true });
      ("use_placement", { options with Compiler.use_placement = true });
      ("check_contracts", { options with Compiler.check_contracts = true });
      ("verification skip", verification Compiler.Skip);
      ( "verification qmdd",
        verification (Compiler.verification_mode ~mode:`Qmdd ()) );
      ( "node budget",
        verification (Compiler.verification_mode ~node_budget:1 ()) );
      ( "no node budget",
        verification (Compiler.verification_mode ~node_budget:0 ()) );
      ( "max_sim_qubits",
        verification (Compiler.verification_mode ~max_sim_qubits:3 ()) );
      ( "rewrite_rules",
        { options with Compiler.rewrite_rules = Rewrite.empty_selection } );
      ( "deadline_seconds",
        budgets (fun b -> { b with Compiler.deadline_seconds = Some 1.0 }) );
      ( "max_optimize_iterations",
        budgets (fun b -> { b with Compiler.max_optimize_iterations = Some 1 })
      );
      ( "swap_budget",
        budgets (fun b -> { b with Compiler.swap_budget = Some 1 }) );
      (* A cost is digested by its content: weights that differ in one
         place, and calibrations of one device. *)
      ( "cost linear 1",
        { options with
          Compiler.cost = Cost.Linear { t = 1.0; cnot = 0.0; gate = 0.0 } } );
      ( "cost linear 9",
        { options with
          Compiler.cost = Cost.Linear { t = 9.0; cnot = 0.0; gate = 0.0 } } );
      ( "cost fidelity seed 1",
        { options with
          Compiler.cost =
            Cost.Log_fidelity (Calibration.synthetic ~seed:1 device) } );
      ( "cost fidelity seed 2",
        { options with
          Compiler.cost =
            Cost.Log_fidelity (Calibration.synthetic ~seed:2 device) } );
    ]
  in
  List.iter
    (fun (name, o) ->
      List.iter
        (fun (other, o') ->
          if name <> other then
            check_bool
              (Printf.sprintf "digests of %s and %s differ" name other)
              true
              (Compiler.options_digest o <> Compiler.options_digest o'))
        variants)
    variants;
  check_bool "canonical form has no hook" false (names "inject")

let test_weighted_router_digest () =
  (* The weighted router carries its calibration as data, so the cache
     key tells calibrations apart and agrees on equal ones. *)
  let device = Device.Ibm.ibmqx5 in
  let digest seed =
    Compiler.options_digest
      { (Compiler.default_options ~device) with
        Compiler.router =
          Compiler.Weighted_ctr (Calibration.synthetic ~seed device)
      }
  in
  check_bool "same seed, same digest" true (digest 1 = digest 1);
  check_bool "different seeds, different digests" true (digest 1 <> digest 2);
  check_bool "weighted differs from plain CTR" true
    (digest 1 <> Compiler.options_digest (Compiler.default_options ~device))

let test_option_combinations () =
  (* Every combination of the boolean pipeline switches still produces
     a verified, legal result. *)
  let device = Device.Ibm.ibmqx4 in
  List.iter
    (fun (pre, post, place) ->
      let opts =
        {
          (Compiler.default_options ~device) with
          Compiler.pre_optimize = pre;
          Compiler.post_optimize = post;
          Compiler.use_placement = place;
        }
      in
      let r = Compiler.compile opts (Compiler.Quantum toffoli_cascade) in
      check_bool
        (Printf.sprintf "pre=%b post=%b place=%b verified" pre post place)
        true
        (Compiler.verified r.Compiler.verification);
      check_bool "legal" true (Lint.is_device_legal device r.Compiler.optimized))
    [
      (false, false, false);
      (false, true, false);
      (true, false, false);
      (true, true, true);
      (false, false, true);
    ]

let test_multi_output_classical () =
  (* A 2-output PLA (half adder) through the front-end. *)
  let pla = Qformats.Pla.of_string ".i 2\n.o 2\n11 10\n01 01\n10 01\n.e\n" in
  let r = compile_to Device.Ibm.ibmqx5 (Compiler.Classical pla) in
  check_bool "verified" true (Compiler.verified r.Compiler.verification);
  (* Reference semantics: wire 2 = AND (carry), wire 3 = XOR (sum). *)
  check_bool "carry" true
    (Sim.truth_table r.Compiler.reference ~inputs:[ 0; 1 ] ~output:2
    = [| false; false; false; true |]);
  check_bool "sum" true
    (Sim.truth_table r.Compiler.reference ~inputs:[ 0; 1 ] ~output:3
    = [| false; true; true; false |])

let prop_compile_random_circuits =
  QCheck2.Test.make ~name:"random circuits compile verified to ibmqx4"
    ~count:15
    (Testutil.gen_circuit ~max_gates:8 4)
    (fun c ->
      let r = compile_to Device.Ibm.ibmqx4 (Compiler.Quantum c) in
      r.Compiler.verification = Compiler.Verified
      && Lint.is_device_legal Device.Ibm.ibmqx4 r.Compiler.optimized
      && Circuit.uses_only_native r.Compiler.optimized)

let prop_compile_idempotent =
  (* A circuit already mapped to a device compiles to itself-or-better:
     no re-expansion, still verified. *)
  QCheck2.Test.make ~name:"recompiling mapped output does not expand" ~count:10
    (Testutil.gen_native_circuit ~max_gates:6 4)
    (fun c ->
      let device = Device.Ibm.ibmqx4 in
      let opts = Compiler.default_options ~device in
      let first = Compiler.compile opts (Compiler.Quantum c) in
      let second =
        Compiler.compile opts (Compiler.Quantum first.Compiler.optimized)
      in
      Compiler.verified second.Compiler.verification
      && Circuit.gate_count second.Compiler.optimized
         <= Circuit.gate_count first.Compiler.optimized)

let prop_all_routers_verified =
  (* Fuzz the full option space: every router on random circuits, all
     formally verified. *)
  QCheck2.Test.make ~name:"all routers produce verified outputs" ~count:10
    (Testutil.gen_native_circuit ~max_gates:6 5)
    (fun c ->
      let device = Device.Ibm.ibmqx4 in
      let cal = Calibration.synthetic device in
      List.for_all
        (fun router ->
          let opts =
            { (Compiler.default_options ~device) with Compiler.router }
          in
          let r = Compiler.compile opts (Compiler.Quantum c) in
          Compiler.verified r.Compiler.verification
          && Lint.is_device_legal device r.Compiler.optimized)
        [
          Compiler.Ctr;
          Compiler.Tracking;
          Compiler.Weighted_ctr cal;
        ])

let prop_compile_classical =
  QCheck2.Test.make ~name:"random 2-input functions compile verified"
    ~count:16
    QCheck2.Gen.(list_repeat 4 bool |> map Array.of_list)
    (fun table ->
      let cubes =
        Array.to_list table
        |> List.mapi (fun k one -> (k, one))
        |> List.filter_map (fun (k, one) ->
               if one then
                 Some
                   (Printf.sprintf "%d%d 1" ((k lsr 1) land 1) (k land 1))
               else None)
      in
      let src =
        ".i 2\n.o 1\n" ^ String.concat "\n" cubes ^ "\n.e\n"
      in
      let pla = Qformats.Pla.of_string src in
      let r = compile_to Device.Ibm.ibmqx2 (Compiler.Classical pla) in
      r.Compiler.verification = Compiler.Verified)

(* --- compile_checked, budgets, fallback verification --- *)

let swap_heavy =
  (* Needs SWAP insertion on ibmqx4's coupling map. *)
  Circuit.make ~n:5
    [
      Gate.H 0;
      Gate.Cnot { control = 0; target = 4 };
      Gate.Cnot { control = 4; target = 1 };
      Gate.Cnot { control = 1; target = 3 };
    ]

let test_compile_checked_ok () =
  let device = Device.Ibm.ibmqx4 in
  match
    Compiler.compile_checked
      (Compiler.default_options ~device)
      (Compiler.Quantum toffoli_cascade)
  with
  | Ok r ->
    check_bool "verified" true (Compiler.verified r.Compiler.verification);
    check_bool "no degradations" false (Compiler.degraded r);
    check_bool "no diagnostics" true (r.Compiler.diagnostics = [])
  | Error ds ->
    Alcotest.failf "clean compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_compile_checked_capacity_error () =
  match
    Compiler.compile_checked
      (Compiler.default_options ~device:Device.Ibm.ibmqx2)
      (Compiler.Quantum (Circuit.empty 9))
  with
  | Ok _ -> Alcotest.fail "oversized circuit accepted"
  | Error ds ->
    check_bool "has errors" true (Diagnostic.has_errors ds);
    check_bool "capacity at front-end" true
      (List.exists
         (fun d ->
           d.Diagnostic.kind = Diagnostic.Capacity
           && d.Diagnostic.stage = Diagnostic.Front_end)
         ds)

let test_compile_checked_nan_input () =
  (* A NaN rotation in the *input* must be rejected at the front-end
     handoff, not poison the QMDD value table. *)
  let c = Circuit.make ~n:2 [ Gate.H 0; Gate.Rz (Float.nan, 1) ] in
  match
    Compiler.compile_checked
      (Compiler.default_options ~device:Device.Ibm.ibmqx4)
      (Compiler.Quantum c)
  with
  | Ok _ -> Alcotest.fail "NaN angle accepted"
  | Error ds ->
    check_bool "invalid-gate at front-end" true
      (List.exists
         (fun d ->
           d.Diagnostic.kind = Diagnostic.Invalid_gate
           && d.Diagnostic.stage = Diagnostic.Front_end)
         ds)

(* The report's JSON with timing scrubbed and without the spans, the one
   part a trace adds. *)
let report_bytes r =
  Trace.Json.to_string
    (Compiler.report_to_json
       {
         r with
         Compiler.trace = [];
         elapsed_seconds = 0.0;
         verification_seconds = 0.0;
       })

let diagnostics_text ds = String.concat "\n" (List.map Diagnostic.to_string ds)

let test_tracing_never_decides () =
  (* Under a fidelity cost the spans once priced the unmapped circuits by
     it, and the traced compile raised "CNOT (1,3) not executable". *)
  let device = Device.Ibm.ibmqx4 in
  let input = Compiler.parse_file "../benchmarks/qc/st_07.qc" in
  let fidelity =
    {
      (Compiler.default_options ~device) with
      Compiler.cost = Cost.Log_fidelity (Calibration.synthetic device);
    }
  in
  let both opts =
    ( Compiler.compile_checked opts input,
      Compiler.compile_checked ~trace:(Trace.create ()) opts input )
  in
  (match both fidelity with
  | Ok plain, Ok traced ->
    check_bool "verified" true (Compiler.verified plain.Compiler.verification);
    check_bool "spans recorded" true (traced.Compiler.trace <> []);
    Alcotest.(check string)
      "same report bytes" (report_bytes plain) (report_bytes traced)
  | _ -> Alcotest.fail "the fidelity compile failed");
  (* A route the SWAP budget cut short leaves CNOTs the fidelity cost
     cannot price: one diagnostic at the route, traced or not. *)
  let cut =
    {
      fidelity with
      Compiler.post_optimize = false;
      budgets = { Compiler.no_budgets with swap_budget = Some 0 };
    }
  in
  match both cut with
  | Error plain, Error traced ->
    check_bool "fails at the route" true
      (List.exists
         (fun d ->
           d.Diagnostic.severity = Diagnostic.Error
           && d.Diagnostic.stage = Diagnostic.Route)
         plain);
    Alcotest.(check string)
      "same diagnostics" (diagnostics_text plain) (diagnostics_text traced)
  | _ -> Alcotest.fail "an unpriceable route compiled"

let test_fidelity_of_injected_gate () =
  (* A gate the device cannot execute, handed over after post-optimize:
     the report's fidelity costs are undefined, and say so as a
     diagnostic instead of raising out of [compile_checked]. *)
  let device = Device.Ibm.ibmqx4 in
  let options =
    {
      (Compiler.default_options ~device) with
      Compiler.cost = Cost.Log_fidelity (Calibration.synthetic device);
    }
  in
  let inject stage c =
    if stage = Diagnostic.Post_optimize then
      Circuit.append c (Gate.Cnot { control = 0; target = 3 })
    else c
  in
  match Compiler.compile_checked ~inject options (Compiler.Quantum toffoli_cascade) with
  | Ok _ -> Alcotest.fail "an unpriceable circuit compiled"
  | Error ds ->
    check_bool "invalid-gate at post-optimize" true
      (List.exists
         (fun d ->
           d.Diagnostic.kind = Diagnostic.Invalid_gate
           && d.Diagnostic.stage = Diagnostic.Post_optimize)
         ds)

(* [options] are refused before the front-end runs, with one diagnostic
   naming [what]. *)
let check_refused what options =
  match
    Compiler.compile_checked options (Compiler.Quantum toffoli_cascade)
  with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error [ d ] ->
    check_bool (what ^ ": before the front-end") true
      (d.Diagnostic.stage = Diagnostic.Driver);
    check_bool (what ^ ": unsupported") true
      (d.Diagnostic.kind = Diagnostic.Unsupported)
  | Error ds -> Alcotest.failf "%s: %s" what (diagnostics_text ds)

let test_non_finite_weights_refused () =
  let o = Compiler.default_options ~device:Device.Ibm.ibmqx4 in
  List.iter
    (fun (what, cost) -> check_refused what { o with Compiler.cost })
    [
      ("nan T weight", Cost.Linear { t = Float.nan; cnot = 0.25; gate = 1.0 });
      ("infinite CNOT weight", Cost.Linear { t = 0.5; cnot = Float.infinity; gate = 1.0 });
      ("-infinite gate weight", Cost.Linear { t = 0.5; cnot = 0.25; gate = Float.neg_infinity });
    ]

let test_foreign_calibration_refused () =
  let o = Compiler.default_options ~device:Device.Ibm.ibmqx4 in
  let ibmqx5 = Calibration.synthetic Device.Ibm.ibmqx5 in
  check_refused "ibmqx5 fidelity cost"
    { o with Compiler.cost = Cost.Log_fidelity ibmqx5 };
  check_refused "ibmqx5 router"
    { o with Compiler.router = Compiler.Weighted_ctr ibmqx5 };
  (* Same register and couplings, another name: it rates this device. *)
  let twin =
    Device.of_dict_string ~name:"twin" ~n_qubits:5
      (Device.to_dict_string Device.Ibm.ibmqx4)
  in
  match
    Compiler.compile_checked
      { o with Compiler.cost = Cost.Log_fidelity (Calibration.synthetic twin) }
      (Compiler.Quantum toffoli_cascade)
  with
  | Ok r -> check_bool "twin verified" true (Compiler.verified r.Compiler.verification)
  | Error ds -> Alcotest.failf "twin calibration: %s" (diagnostics_text ds)

let test_iteration_budget_degrades () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.budgets =
        { Compiler.no_budgets with
          Compiler.max_optimize_iterations = Some 0
        }
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum toffoli_cascade) with
  | Ok r ->
    check_bool "degraded" true (Compiler.degraded r);
    check_bool "pre-optimize marked" true
      (List.mem_assoc Diagnostic.Pre_optimize r.Compiler.degraded);
    check_bool "post-optimize marked" true
      (List.mem_assoc Diagnostic.Post_optimize r.Compiler.degraded);
    (* Degraded, not broken: the unoptimized circuit still verifies. *)
    check_bool "still verified" true
      (Compiler.verified r.Compiler.verification);
    check_bool "degradations are warning diagnostics" true
      (List.for_all
         (fun d ->
           d.Diagnostic.severity = Diagnostic.Warning
           && d.Diagnostic.kind = Diagnostic.Budget_exhausted)
         r.Compiler.diagnostics
      && r.Compiler.diagnostics <> [])
  | Error ds ->
    Alcotest.failf "budgeted compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_swap_budget_degrades () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.budgets =
        { Compiler.no_budgets with Compiler.swap_budget = Some 0 }
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum swap_heavy) with
  | Ok r ->
    check_bool "route marked degraded" true
      (List.mem_assoc Diagnostic.Route r.Compiler.degraded);
    (* Unrouted CNOTs are left as written: illegal on the device but
       unitary-preserving, so verification still succeeds. *)
    check_bool "unitary preserved" true
      (Compiler.verified r.Compiler.verification);
    check_bool "not device-legal" false
      (Lint.is_device_legal device r.Compiler.optimized)
  | Error ds ->
    Alcotest.failf "swap-budgeted compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_deadline_degrades_not_aborts () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.verification =
        Compiler.Fallback { node_budget = None; max_sim_qubits = 10 };
      Compiler.budgets =
        { Compiler.no_budgets with
          Compiler.deadline_seconds = Some 0.0
        }
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum swap_heavy) with
  | Ok r ->
    check_bool "degraded" true (Compiler.degraded r);
    (match r.Compiler.verification with
    | Compiler.Unverified _ -> ()
    | v ->
      Alcotest.failf "expected Unverified, got %s"
        (Compiler.verification_to_string v))
  | Error ds ->
    Alcotest.failf "deadline compile aborted: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

(* A circuit whose QMDD equivalence check takes a few hundred
   milliseconds: twenty layers of H, an irrational Rz and a CNOT five
   qubits away over 16 qubits.  Routing those CNOTs on ibmqx5 inserts
   SWAP chains, and the distinct angles keep the diagram's weights from
   collapsing, so the check cannot finish inside the sliver of budget
   the test leaves it.  The routed circuit is twenty times longer than
   the reference, too far apart for the aligner's work bound, so the
   miter interleaves the two in proportion; ten layers align, and check
   in about 0.05 s. *)
let verification_heavy =
  let n = 16 in
  let gates = ref [] in
  for layer = 1 to 20 do
    for q = 0 to n - 1 do
      let angle = (sqrt 2.0 *. float_of_int (q + 1)) +. float_of_int layer in
      gates := Gate.Rz (angle, q) :: Gate.H q :: !gates;
      gates := Gate.Cnot { control = q; target = (q + 5) mod n } :: !gates
    done
  done;
  Circuit.make ~n (List.rev !gates)

let test_deadline_enforced_inside_verification () =
  (* Regression: the wall-clock budget used to be consulted only
     between stages, so a compile that reached verification with a
     moment to spare ran the QMDD check to completion however long it
     took.  The inject hook below burns the budget down to ~30ms after
     routing; the check needs far longer, so the deadline must now
     expire mid-check and degrade to [Unverified] with the
     during-verification reason.  Pre-fix this test fails with
     [Verified]. *)
  let device = Device.Ibm.ibmqx5 in
  let deadline = 1.0 in
  let margin = 0.03 in
  let base =
    { (Compiler.default_options ~device) with
      Compiler.pre_optimize = false;
      Compiler.post_optimize = false;
      Compiler.verification =
        Compiler.Fallback { node_budget = Some 8_000_000; max_sim_qubits = 10 }
    }
  in
  (* The premise: without a deadline the check runs well past the
     margin.  A faster kernel can make it finish inside the margin, and
     then the assertions below would fail for the wrong reason. *)
  let unbudgeted =
    Compiler.compile base (Compiler.Quantum verification_heavy)
  in
  if unbudgeted.Compiler.verification_seconds < 3.0 *. margin then
    Alcotest.failf
      "premise broken: the unbudgeted check took %.3fs, under 3x the \
       %.3fs margin; verification_heavy needs a heavier circuit"
      unbudgeted.Compiler.verification_seconds margin;
  let t0 = Trace.now_ns () in
  let inject stage c =
    (* Last hook before verification: spin until only [margin] of the
       budget remains, so the pre-verification deadline check still
       passes. *)
    if stage = Diagnostic.Expand_swaps then begin
      let target =
        Int64.add t0 (Int64.of_float ((deadline -. margin) *. 1e9))
      in
      while Int64.compare (Trace.now_ns ()) target < 0 do
        ()
      done
    end;
    c
  in
  let opts =
    { base with
      Compiler.budgets =
        { Compiler.no_budgets with Compiler.deadline_seconds = Some deadline }
    }
  in
  match
    Compiler.compile_checked ~inject opts (Compiler.Quantum verification_heavy)
  with
  | Ok r ->
    (match r.Compiler.verification with
    | Compiler.Unverified reason ->
      check_bool
        (Printf.sprintf "deadline tripped mid-check (reason: %s)" reason)
        true
        (reason = "wall-clock deadline exceeded during verification");
      (* The whole point: the overrun past the deadline is bounded by
         the probe stride, not by the size of the check. *)
      let elapsed =
        Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9
      in
      check_bool
        (Printf.sprintf "no overrun (%.3fs for a %.1fs deadline)" elapsed
           deadline)
        true
        (elapsed < deadline +. 0.5)
    | v ->
      Alcotest.failf "expected Unverified (deadline), got %s"
        (Compiler.verification_to_string v))
  | Error ds ->
    Alcotest.failf "deadline compile aborted: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

(* The five Table 8 cascades from T10_b down to T6_b, then back up, on
   big96: past the dense oracle's width, and the strict-mode check of
   the first swap-level sweep takes QMDD over a second.  A miter paced
   along the diff of the two gate lists checks the sweep of a single
   cascade in a fraction of that, and of the five in ascending order,
   twice, in about 0.9 s; this order makes it about 1.5 times longer. *)
let strict_heavy () =
  let up = List.map Benchsuite.Big_cascades.circuit Benchsuite.Big_cascades.all in
  match List.rev up @ up with
  | first :: rest -> List.fold_left Circuit.concat first rest
  | [] -> assert false

let test_strict_check_keeps_deadline () =
  (* Regression: strict mode's oracle check of an optimizer sweep ran
     without the compile's deadline, so a budget that expired mid-check
     was overrun by the whole check.  The inject hook burns the budget
     down to [margin] just before post-optimize; the first sweep's check
     needs far longer, so it must give up at the deadline, and the
     dropped sweep degrades post-optimize. *)
  let device = Device.Ibm.big96 in
  let circuit = strict_heavy () in
  let deadline = 1.0 and margin = 0.1 in
  let base =
    { (Compiler.default_options ~device) with
      Compiler.verification = Compiler.Skip;
      Compiler.check_contracts = true
    }
  in
  (* The premise: the check runs on QMDD, and without a deadline the
     first post-optimize sweep takes longer than the 0.5s allowance, so
     a check that ignored the deadline would overrun it. *)
  check_bool "wider than the dense oracle" true
    (Circuit.n_qubits circuit > Sim.max_unitary_qubits);
  let trace = Trace.create () in
  ignore (Compiler.compile ~trace base (Compiler.Quantum circuit));
  let first_sweep =
    List.find
      (fun sp -> sp.Trace.name = "post-optimize/swap-level/iteration-1")
      (Trace.spans trace)
  in
  if first_sweep.Trace.wall_seconds < 0.5 +. (3.0 *. margin) then
    Alcotest.failf
      "premise broken: the first strict sweep took %.3fs, inside the \
       allowance; strict_heavy needs a heavier circuit"
      first_sweep.Trace.wall_seconds;
  let t0 = Trace.now_ns () in
  let inject stage c =
    if stage = Diagnostic.Expand_swaps then begin
      let target =
        Int64.add t0 (Int64.of_float ((deadline -. margin) *. 1e9))
      in
      while Int64.compare (Trace.now_ns ()) target < 0 do
        ()
      done
    end;
    c
  in
  let opts =
    { base with
      Compiler.budgets =
        { Compiler.no_budgets with Compiler.deadline_seconds = Some deadline }
    }
  in
  match Compiler.compile_checked ~inject opts (Compiler.Quantum circuit) with
  | Ok r ->
    let elapsed = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9 in
    check_bool
      (Printf.sprintf "no overrun (%.3fs for a %.1fs deadline)" elapsed
         deadline)
      true
      (elapsed < deadline +. 0.5);
    check_bool "post-optimize degraded" true
      (List.mem_assoc Diagnostic.Post_optimize r.Compiler.degraded);
    (* Post-optimize did start: the time left after the hook covers the
       audits between it and the first sweep. *)
    check_bool "the first sweep's check gave up at the deadline" true
      (List.mem
         ( Diagnostic.Post_optimize,
           "sweep 1 reverted: equivalence oracle gave up: wall-clock \
            deadline exceeded" )
         r.Compiler.degraded)
  | Error ds ->
    Alcotest.failf "strict deadline compile aborted: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_strict_check_gives_up_on_budget () =
  (* A 1-node budget cannot settle a sweep check on QMDD (16 qubits is
     past the dense oracle's cap): the sweep is dropped and the report
     says so on the stage, as it does for a fold-states rejection. *)
  let device = Device.Ibm.ibmqx5 in
  let circuit =
    Circuit.make ~n:16
      [ Gate.T 0; Gate.T 0; Gate.Cnot { control = 0; target = 9 } ]
  in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.verification = Compiler.Qmdd_check { node_budget = Some 1 };
      Compiler.check_contracts = true
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum circuit) with
  | Ok r ->
    check_bool "pre-optimize sweep dropped and reported" true
      (List.mem
         ( Diagnostic.Pre_optimize,
           "sweep 1 reverted: equivalence oracle gave up: QMDD node budget \
            exhausted" )
         r.Compiler.degraded);
    check_bool "the T pair survives" true
      (Circuit.t_count r.Compiler.optimized >= 2)
  | Error ds ->
    Alcotest.failf "compile aborted: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_fallback_chain_reaches_sim_oracle () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.verification =
        (* A 1-node QMDD budget cannot verify anything: the chain must
           fall through to the dense-matrix oracle. *)
        Compiler.Fallback { node_budget = Some 1; max_sim_qubits = 10 }
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum swap_heavy) with
  | Ok r ->
    check_bool "sim oracle verified" true
      (r.Compiler.verification = Compiler.Verified_sim)
  | Error ds ->
    Alcotest.failf "fallback compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_fallback_unverified_when_too_wide () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.verification =
        (* Oracle clamped below the register width: nothing in the
           chain can answer, and the report must say why. *)
        Compiler.Fallback { node_budget = Some 1; max_sim_qubits = 2 }
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum swap_heavy) with
  | Ok r -> (
    match r.Compiler.verification with
    | Compiler.Unverified reason ->
      check_bool "reason is non-empty" true (String.length reason > 0)
    | v ->
      Alcotest.failf "expected Unverified, got %s"
        (Compiler.verification_to_string v))
  | Error ds ->
    Alcotest.failf "fallback compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_qmdd_budget_reports_budget_exceeded () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.verification = Compiler.Qmdd_check { node_budget = Some 1 }
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum swap_heavy) with
  | Ok r ->
    check_bool "budget exceeded" true
      (r.Compiler.verification = Compiler.Budget_exceeded);
    check_bool "verify marked degraded" true
      (List.mem_assoc Diagnostic.Verify r.Compiler.degraded)
  | Error ds ->
    Alcotest.failf "budgeted verification failed the compile: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_compile_raising_wrapper_matches_checked () =
  (* The raising wrapper renders the first error diagnostic. *)
  match
    Compiler.compile
      (Compiler.default_options ~device:Device.Ibm.ibmqx2)
      (Compiler.Quantum (Circuit.empty 9))
  with
  | exception Compiler.Compile_error msg ->
    check_bool "message names the stage" true
      (let re = "[front-end]" in
       let n = String.length msg and k = String.length re in
       let rec scan i = i + k <= n && (String.sub msg i k = re || scan (i + 1)) in
       scan 0)
  | _ -> Alcotest.fail "expected Compile_error"

let test_report_json_carries_robustness_fields () =
  let device = Device.Ibm.ibmqx4 in
  let opts =
    { (Compiler.default_options ~device) with
      Compiler.budgets =
        { Compiler.no_budgets with
          Compiler.max_optimize_iterations = Some 0
        }
    }
  in
  match Compiler.compile_checked opts (Compiler.Quantum toffoli_cascade) with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok r -> (
    match Compiler.report_to_json r with
    | Trace.Json.Obj members ->
      let degraded_entries =
        match List.assoc_opt "degraded" members with
        | Some (Trace.Json.List l) -> l
        | _ -> Alcotest.fail "no degraded list in report json"
      in
      check_bool "degraded entries serialized" true
        (List.length degraded_entries = List.length r.Compiler.degraded);
      (match List.assoc_opt "diagnostics" members with
      | Some (Trace.Json.List ds) ->
        check_bool "diagnostics parse back" true
          (List.for_all (fun j -> Diagnostic.of_json j <> None) ds)
      | _ -> Alcotest.fail "no diagnostics list in report json")
    | _ -> Alcotest.fail "report json is not an object")

let () =
  Alcotest.run "compiler"
    [
      ( "pipeline",
        [
          Alcotest.test_case "toffoli cascade to ibmqx2" `Quick
            test_quantum_to_ibmqx2;
          Alcotest.test_case "all devices" `Quick test_quantum_to_all_small_devices;
          Alcotest.test_case "classical front end" `Quick test_classical_front_end;
          Alcotest.test_case "simulator target" `Quick
            test_simulator_target_identity_mapping;
          Alcotest.test_case "mct needs room" `Quick test_mct_needs_room;
          Alcotest.test_case "too big rejected" `Quick test_too_big_rejected;
          Alcotest.test_case "skip verification" `Quick
            test_verification_catches_skip;
          Alcotest.test_case "failure injection" `Quick
            test_verification_catches_injected_bug;
          Alcotest.test_case "tracking router option" `Quick
            test_tracking_router_option;
          Alcotest.test_case "option combinations" `Quick test_option_combinations;
          Alcotest.test_case "multi-output classical" `Quick
            test_multi_output_classical;
        ] );
      ( "io",
        [
          Alcotest.test_case "emit qasm" `Quick test_emit_qasm;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "placement truncation" `Quick
            test_pp_report_placement_truncation;
          Alcotest.test_case "extension" `Quick test_extension;
          Alcotest.test_case "parse_file dispatch" `Quick test_parse_file_dispatch;
          Alcotest.test_case "parse_source dispatch" `Quick
            test_parse_source_dispatch;
          Alcotest.test_case "content digests" `Quick test_content_digests;
          Alcotest.test_case "weighted router digest" `Quick
            test_weighted_router_digest;
          Alcotest.test_case "parse_file in dotted dir" `Quick
            test_parse_file_in_dotted_dir;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans cover the pipeline" `Quick
            test_trace_spans_cover_pipeline;
          Alcotest.test_case "report to json" `Quick test_report_to_json;
          Alcotest.test_case "tracing never decides" `Quick
            test_tracing_never_decides;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "compile_checked ok" `Quick
            test_compile_checked_ok;
          Alcotest.test_case "capacity error" `Quick
            test_compile_checked_capacity_error;
          Alcotest.test_case "nan input rejected" `Quick
            test_compile_checked_nan_input;
          Alcotest.test_case "non-finite weights refused" `Quick
            test_non_finite_weights_refused;
          Alcotest.test_case "foreign calibration refused" `Quick
            test_foreign_calibration_refused;
          Alcotest.test_case "fidelity of an injected gate" `Quick
            test_fidelity_of_injected_gate;
          Alcotest.test_case "iteration budget degrades" `Quick
            test_iteration_budget_degrades;
          Alcotest.test_case "swap budget degrades" `Quick
            test_swap_budget_degrades;
          Alcotest.test_case "deadline degrades, not aborts" `Quick
            test_deadline_degrades_not_aborts;
          Alcotest.test_case "deadline enforced inside verification" `Quick
            test_deadline_enforced_inside_verification;
          Alcotest.test_case "strict check keeps the deadline" `Quick
            test_strict_check_keeps_deadline;
          Alcotest.test_case "strict check gives up on its budget" `Quick
            test_strict_check_gives_up_on_budget;
          Alcotest.test_case "fallback reaches sim oracle" `Quick
            test_fallback_chain_reaches_sim_oracle;
          Alcotest.test_case "fallback unverified when too wide" `Quick
            test_fallback_unverified_when_too_wide;
          Alcotest.test_case "qmdd budget exceeded" `Quick
            test_qmdd_budget_reports_budget_exceeded;
          Alcotest.test_case "raising wrapper renders diagnostic" `Quick
            test_compile_raising_wrapper_matches_checked;
          Alcotest.test_case "report json robustness fields" `Quick
            test_report_json_carries_robustness_fields;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_compile_random_circuits;
          QCheck_alcotest.to_alcotest prop_compile_idempotent;
          QCheck_alcotest.to_alcotest prop_all_routers_verified;
          QCheck_alcotest.to_alcotest prop_compile_classical;
        ] );
    ]
