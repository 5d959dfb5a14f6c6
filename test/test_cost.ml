let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let check_float name expected actual =
  Alcotest.(check (float 1e-9)) name expected actual

let sample =
  Circuit.make ~n:3
    [
      Gate.T 0;
      Gate.Tdg 1;
      Gate.H 2;
      Gate.Cnot { control = 0; target = 1 };
      Gate.Cnot { control = 1; target = 2 };
      Gate.S 0;
    ]

let test_eqn2 () =
  (* t = 2, c = 2, a = 6: 0.5*2 + 0.25*2 + 6 = 7.5 — Eqn. 2 verbatim. *)
  check_float "eqn2 value" 7.5 (Cost.evaluate Cost.eqn2 sample);
  check_float "empty circuit" 0.0 (Cost.evaluate Cost.eqn2 (Circuit.empty 2))

let test_linear_weights () =
  let t_only = Cost.Linear { t = 1.0; cnot = 0.0; gate = 0.0 } in
  check_float "counts T gates" 2.0 (Cost.evaluate t_only sample);
  check_float "counts volume" 6.0 (Cost.evaluate Cost.gate_volume sample);
  (* 10*2 + 2 + 6 *)
  check_float "t-weighted" 28.0 (Cost.evaluate Cost.t_weighted sample)

let test_to_string () =
  (* The rendering is exact: it tells apart weights one ulp apart and
     calibrations that differ in one rate, and agrees on equal costs. *)
  let linear t = Cost.Linear { t; cnot = 0.25; gate = 1.0 } in
  check_string "eqn2" "linear:t=0.5,cnot=0.25,gate=1" (Cost.to_string Cost.eqn2);
  check_bool "equal weights render alike" true
    (Cost.to_string (linear 0.5) = Cost.to_string Cost.eqn2);
  check_bool "one ulp apart" false
    (Cost.to_string (linear 0.5) = Cost.to_string (linear (Float.succ 0.5)));
  let fidelity rate =
    Cost.Log_fidelity
      (Calibration.of_values Device.Ibm.ibmqx4 ~single:[ (0, rate) ]
         ~readout:[] ~cnot:[])
  in
  check_bool "calibration by digest" true
    (String.starts_with ~prefix:"log-fidelity:"
       (Cost.to_string (fidelity 0.01)));
  check_bool "equal calibrations render alike" true
    (Cost.to_string (fidelity 0.01) = Cost.to_string (fidelity 0.01));
  check_bool "one rate apart" false
    (Cost.to_string (fidelity 0.01) = Cost.to_string (fidelity 0.02))

let test_percent_decrease () =
  check_float "50 percent" 50.0 (Cost.percent_decrease ~before:10.0 ~after:5.0);
  check_float "no change" 0.0 (Cost.percent_decrease ~before:7.0 ~after:7.0);
  check_float "zero before guarded" 0.0 (Cost.percent_decrease ~before:0.0 ~after:3.0);
  check_float "negative when worse" (-20.0)
    (Cost.percent_decrease ~before:5.0 ~after:6.0)

let prop_eqn2_additive =
  QCheck2.Test.make ~name:"eqn2 additive over concatenation" ~count:80
    QCheck2.Gen.(pair (Testutil.gen_circuit 4) (Testutil.gen_circuit 4))
    (fun (a, b) ->
      abs_float
        (Cost.evaluate Cost.eqn2 (Circuit.concat a b)
        -. (Cost.evaluate Cost.eqn2 a +. Cost.evaluate Cost.eqn2 b))
      < 1e-9)

let prop_eqn2_gate_bounds =
  (* Every gate costs at least 1 (volume term) and at most 1.5. *)
  QCheck2.Test.make ~name:"eqn2 per-gate bounds" ~count:80
    (Testutil.gen_circuit 4)
    (fun c ->
      let v = float_of_int (Circuit.gate_count c) in
      let cost = Cost.evaluate Cost.eqn2 c in
      cost >= v && cost <= 1.5 *. v)

let test_eqn2_allocates_nothing_per_gate () =
  (* Every optimizer sweep prices its circuit here, so the count must
     allocate nothing per gate. *)
  let c =
    Circuit.make ~n:3
      (List.init 10_000 (fun i ->
           match i mod 4 with
           | 0 -> Gate.T 0
           | 1 -> Gate.Cnot { control = 0; target = 1 }
           | 2 -> Gate.H 2
           | _ -> Gate.Tdg 1))
  in
  let before = Gc.minor_words () in
  let cost = Cost.evaluate Cost.eqn2 c in
  let words = Gc.minor_words () -. before in
  check_float "cost" 13_125.0 cost;
  check_bool
    (Printf.sprintf "%.0f minor words, fewer than 100" words)
    true (words < 100.0)

let () =
  Alcotest.run "cost"
    [
      ( "functions",
        [
          Alcotest.test_case "eqn2" `Quick test_eqn2;
          Alcotest.test_case "linear weights" `Quick test_linear_weights;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "percent decrease" `Quick test_percent_decrease;
          Alcotest.test_case "eqn2 allocates nothing per gate" `Quick
            test_eqn2_allocates_nothing_per_gate;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_eqn2_additive;
          QCheck_alcotest.to_alcotest prop_eqn2_gate_bounds;
        ] );
    ]
