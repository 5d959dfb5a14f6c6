(* The fault-injection matrix: corrupt every circuit-producing stage's
   output in every supported way and assert the compiler never lets an
   exception escape — every failure is a structured diagnostic naming
   the injected stage, and silent corruption is caught by
   verification. *)

let check_bool = Alcotest.(check bool)

let device = Device.Ibm.ibmqx4

let sample =
  Circuit.make ~n:5
    [
      Gate.H 0;
      Gate.Cnot { control = 0; target = 4 };
      Gate.Cnot { control = 4; target = 1 };
      Gate.Cnot { control = 1; target = 3 };
      Gate.T 3;
    ]

let compile_with ?(post_optimize = true) harness =
  Compiler.compile_checked ~inject:(Faultinject.hook harness)
    { (Compiler.default_options ~device) with Compiler.post_optimize }
    (Compiler.Quantum sample)

let run_spec ?(seed = 0) ?post_optimize spec =
  let harness = Faultinject.create ~seed [ spec ] in
  (harness, compile_with ?post_optimize harness)

let diag_matches spec (d : Diagnostic.t) ~kind =
  d.Diagnostic.stage = spec.Faultinject.stage && d.Diagnostic.kind = kind

let test_raise_becomes_internal_diagnostic () =
  List.iter
    (fun stage ->
      let spec = { Faultinject.stage; fault = Faultinject.Raise } in
      match run_spec spec with
      | harness, Error ds ->
        check_bool
          (Printf.sprintf "%s fired" (Faultinject.spec_to_string spec))
          true
          (Faultinject.fired harness = [ spec ]);
        check_bool
          (Printf.sprintf "%s -> internal diagnostic"
             (Faultinject.spec_to_string spec))
          true
          (List.exists (diag_matches spec ~kind:Diagnostic.Internal) ds)
      | _, Ok _ ->
        Alcotest.failf "%s: compile succeeded"
          (Faultinject.spec_to_string spec)
      | exception e ->
        Alcotest.failf "%s: exception escaped: %s"
          (Faultinject.spec_to_string spec)
          (Printexc.to_string e))
    Faultinject.stages

let test_nan_angle_caught_at_handoff () =
  List.iter
    (fun stage ->
      let spec = { Faultinject.stage; fault = Faultinject.Nan_angle } in
      match run_spec spec with
      | _, Error ds ->
        check_bool
          (Printf.sprintf "%s -> invalid-gate diagnostic"
             (Faultinject.spec_to_string spec))
          true
          (List.exists (diag_matches spec ~kind:Diagnostic.Invalid_gate) ds)
      | _, Ok _ ->
        Alcotest.failf "%s: NaN angle slipped through"
          (Faultinject.spec_to_string spec)
      | exception e ->
        Alcotest.failf "%s: exception escaped: %s"
          (Faultinject.spec_to_string spec)
          (Printexc.to_string e))
    Faultinject.stages

let test_out_of_range_wire_caught () =
  List.iter
    (fun stage ->
      let spec = { Faultinject.stage; fault = Faultinject.Out_of_range_wire } in
      match run_spec spec with
      | _, Error ds ->
        check_bool
          (Printf.sprintf "%s -> invalid-gate diagnostic"
             (Faultinject.spec_to_string spec))
          true
          (List.exists (diag_matches spec ~kind:Diagnostic.Invalid_gate) ds)
      | _, Ok _ ->
        Alcotest.failf "%s: out-of-range wire slipped through"
          (Faultinject.spec_to_string spec)
      | exception e ->
        Alcotest.failf "%s: exception escaped: %s"
          (Faultinject.spec_to_string spec)
          (Printexc.to_string e))
    Faultinject.stages

let test_truncation_never_escapes () =
  (* Truncation is silent corruption: no structural check can see it,
     so the only demand on stages after the reference snapshot is that
     verification answers — and never claims equivalence.  [Front_end]
     is exempt: there the reference itself is taken after injection,
     so the (truncated) compile legitimately verifies.  [Expand_swaps]
     is not: with post-optimization on, the gate-level stream is
     re-derived from the swap-level circuit, but the report's
     unoptimized circuit must still reassemble from its routed
     blocks. *)
  List.iter
    (fun stage ->
      let spec = { Faultinject.stage; fault = Faultinject.Truncate } in
      match run_spec spec with
      | _, Error _ -> ()
      | _, Ok r ->
        if stage <> Diagnostic.Front_end then
          check_bool
            (Printf.sprintf "%s: corrupt output must not verify"
               (Faultinject.spec_to_string spec))
            false
            (Compiler.verified r.Compiler.verification)
      | exception e ->
        Alcotest.failf "%s: exception escaped: %s"
          (Faultinject.spec_to_string spec)
          (Printexc.to_string e))
    Faultinject.stages

let test_truncation_at_expand_swaps_without_post_optimize () =
  let spec =
    { Faultinject.stage = Diagnostic.Expand_swaps; fault = Faultinject.Truncate }
  in
  match run_spec ~post_optimize:false spec with
  | _, Ok r ->
    check_bool "corrupt output must not verify" false
      (Compiler.verified r.Compiler.verification)
  | _, Error ds ->
    Alcotest.failf "compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_truncation_detected_as_mismatch () =
  let spec =
    { Faultinject.stage = Diagnostic.Post_optimize; fault = Faultinject.Truncate }
  in
  match run_spec spec with
  | _, Ok r ->
    check_bool "verification mismatch" true
      (r.Compiler.verification = Compiler.Mismatch)
  | _, Error ds ->
    Alcotest.failf "compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds))

let test_same_seed_same_outcome () =
  let outcome seed =
    let spec =
      { Faultinject.stage = Diagnostic.Decompose; fault = Faultinject.Truncate }
    in
    match run_spec ~seed spec with
    | _, Ok r ->
      (Compiler.verification_tag r.Compiler.verification,
       Circuit.gate_count r.Compiler.optimized)
    | _, Error ds -> ("error", List.length ds)
  in
  check_bool "seed 7 replays" true (outcome 7 = outcome 7);
  check_bool "seed 0 replays" true (outcome 0 = outcome 0)

let test_draw_sequence_independent_of_circuit_size () =
  (* Pin: every fault draws from the RNG even when the stage circuit
     is empty, so one seed produces the same fault sequence no matter
     how large each stage's circuit happens to be.  The second stage's
     truncation point must not depend on what the first stage saw. *)
  let big =
    Circuit.make ~n:4
      (List.concat_map
         (fun q -> [ Gate.H q; Gate.T q; Gate.X q ])
         [ 0; 1; 2; 3 ])
  in
  let second_stage_effect first_stage_circuit =
    let h =
      Faultinject.create ~seed:11
        [
          { Faultinject.stage = Diagnostic.Pre_optimize;
            fault = Faultinject.Truncate };
          { Faultinject.stage = Diagnostic.Route;
            fault = Faultinject.Truncate };
        ]
    in
    let (_ : Circuit.t) =
      Faultinject.hook h Diagnostic.Pre_optimize first_stage_circuit
    in
    Circuit.gate_count (Faultinject.hook h Diagnostic.Route big)
  in
  List.iter
    (fun seen_first ->
      check_bool "same truncation point at the second stage" true
        (second_stage_effect seen_first = second_stage_effect big))
    [ Circuit.empty 1; Circuit.empty 4; Circuit.make ~n:2 [ Gate.H 0 ] ]

let test_unfired_specs_are_visible () =
  (* A harness with no specs never fires; one targeting a stage that
     runs fires exactly once even if compiled twice over. *)
  let harness = Faultinject.create [] in
  (match compile_with harness with
  | Ok _ -> ()
  | Error ds ->
    Alcotest.failf "clean compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds)));
  check_bool "nothing fired" true (Faultinject.fired harness = [])

let test_matrix_covers_all_stages_and_faults () =
  check_bool "matrix size" true
    (List.length Faultinject.matrix
    = List.length Faultinject.stages * List.length Faultinject.all_faults);
  List.iter
    (fun f ->
      check_bool
        (Faultinject.fault_to_string f ^ " round-trips")
        true
        (Faultinject.fault_of_string (Faultinject.fault_to_string f) = Some f))
    Faultinject.all_faults;
  check_bool "unknown fault name" true
    (Faultinject.fault_of_string "gamma-ray" = None)

let test_spec_round_trip () =
  List.iter
    (fun spec ->
      let text = Faultinject.spec_to_string spec in
      check_bool (text ^ " round-trips") true
        (Faultinject.spec_of_string text = Ok spec))
    Faultinject.matrix;
  check_bool "no @" true (Faultinject.spec_of_string "raise" = Error `No_at);
  check_bool "unknown fault" true
    (Faultinject.spec_of_string "gamma-ray@route"
    = Error (`Unknown_fault "gamma-ray"));
  check_bool "unknown stage, split at the first @" true
    (Faultinject.spec_of_string "raise@route@place"
    = Error (`Unknown_stage "route@place"))

let () =
  Alcotest.run "faultinject"
    [
      ( "fault matrix",
        [
          Alcotest.test_case "raise -> internal diagnostic" `Quick
            test_raise_becomes_internal_diagnostic;
          Alcotest.test_case "nan angle caught at handoff" `Quick
            test_nan_angle_caught_at_handoff;
          Alcotest.test_case "out-of-range wire caught" `Quick
            test_out_of_range_wire_caught;
          Alcotest.test_case "truncation never escapes" `Quick
            test_truncation_never_escapes;
          Alcotest.test_case "truncation detected as mismatch" `Quick
            test_truncation_detected_as_mismatch;
          Alcotest.test_case "truncation at expand-swaps (no post-opt)" `Quick
            test_truncation_at_expand_swaps_without_post_optimize;
          Alcotest.test_case "same seed same outcome" `Quick
            test_same_seed_same_outcome;
          Alcotest.test_case "draw sequence independent of circuit size"
            `Quick test_draw_sequence_independent_of_circuit_size;
          Alcotest.test_case "unfired specs are visible" `Quick
            test_unfired_specs_are_visible;
          Alcotest.test_case "matrix covers stages and faults" `Quick
            test_matrix_covers_all_stages_and_faults;
          Alcotest.test_case "spec_of_string round-trips the matrix" `Quick
            test_spec_round_trip;
        ] );
    ]
