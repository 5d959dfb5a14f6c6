let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_float name expected actual =
  Alcotest.(check (float 1e-9)) name expected actual

(* Table 2 of the paper: coupling complexity per device. *)
let test_table2_complexities () =
  check_float "ibmqx2" 0.3 (Device.coupling_complexity Device.Ibm.ibmqx2);
  check_float "ibmqx3" (20.0 /. 240.0)
    (Device.coupling_complexity Device.Ibm.ibmqx3);
  check_float "ibmqx4" 0.3 (Device.coupling_complexity Device.Ibm.ibmqx4);
  check_float "ibmqx5" (22.0 /. 240.0)
    (Device.coupling_complexity Device.Ibm.ibmqx5);
  check_float "ibmq_16" (18.0 /. 182.0)
    (Device.coupling_complexity Device.Ibm.ibmq_16)

let test_device_sizes () =
  check_int "ibmqx2 qubits" 5 (Device.n_qubits Device.Ibm.ibmqx2);
  check_int "ibmqx3 qubits" 16 (Device.n_qubits Device.Ibm.ibmqx3);
  check_int "ibmqx4 qubits" 5 (Device.n_qubits Device.Ibm.ibmqx4);
  check_int "ibmqx5 qubits" 16 (Device.n_qubits Device.Ibm.ibmqx5);
  check_int "ibmq_16 qubits" 14 (Device.n_qubits Device.Ibm.ibmq_16);
  check_int "big96 qubits" 96 (Device.n_qubits Device.Ibm.big96)

let test_directed_coupling () =
  let d = Device.Ibm.ibmqx4 in
  (* ibmqx4 = {1:[0], 2:[0,1], 3:[2,4], 4:[2]} *)
  check_bool "1 -> 0 allowed" true (Device.allows_cnot d ~control:1 ~target:0);
  check_bool "0 -> 1 not native" false (Device.allows_cnot d ~control:0 ~target:1);
  check_bool "0,1 coupled undirected" true (Device.coupled d 0 1);
  check_bool "0,3 not coupled" false (Device.coupled d 0 3);
  check_bool "neighbors of 2" true (Device.neighbors d 2 = [ 0; 1; 3; 4 ])

let test_coupling_lookups_allocate_nothing () =
  (* The optimizer's templates ask [allows_cnot] for every CNOT they
     read.  Out-of-range qubits answer false, without aliasing an
     in-range pair: (0, 5) would be key 5 = (1, 0) on ibmqx4. *)
  let d = Device.Ibm.ibmqx4 in
  check_bool "0 -> 5 outside the register" false
    (Device.allows_cnot d ~control:0 ~target:5);
  check_bool "-1 -> 1 outside the register" false
    (Device.allows_cnot d ~control:(-1) ~target:1);
  check_bool "0,5 outside the register" false (Device.coupled d 0 5);
  let calls = 10_000 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    let control = i mod 5 and target = i * 7 mod 5 in
    if Device.allows_cnot d ~control ~target then incr hits;
    if Device.coupled d control target then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check_bool "some pairs coupled" true (!hits > 0);
  check_bool
    (Printf.sprintf "%.0f minor words over %d calls of each" words calls)
    true
    (words < 100.0)

let test_fig5_adjacency () =
  (* In Fig. 5 the CTR route q5 -> q12 -> q11 -> (CNOT q11, q10) exists on
     ibmqx3: check the underlying undirected edges. *)
  let d = Device.Ibm.ibmqx3 in
  check_bool "q5,q12 coupled" true (Device.coupled d 5 12);
  check_bool "q12,q11 coupled" true (Device.coupled d 12 11);
  check_bool "q11,q10 coupled" true (Device.coupled d 11 10);
  check_bool "q5,q10 not coupled" false (Device.coupled d 5 10)

let test_connectivity () =
  List.iter
    (fun d ->
      check_bool (Device.name d ^ " connected") true (Device.is_connected d))
    (Device.Ibm.all @ [ Device.Ibm.big96 ])

let test_simulator () =
  let s = Device.simulator ~n_qubits:8 in
  check_float "simulator complexity 1" 1.0 (Device.coupling_complexity s);
  check_bool "any cnot" true (Device.allows_cnot s ~control:7 ~target:0);
  check_bool "is_simulator" true (Device.is_simulator s);
  check_bool "real device not simulator" false
    (Device.is_simulator Device.Ibm.ibmqx2)

let test_dict_roundtrip () =
  let d =
    Device.of_dict_string ~name:"custom" ~n_qubits:5
      "{0:[1,2], 1:[2], 3:[2,4], 4:[2]}"
  in
  check_float "parsed complexity" 0.3 (Device.coupling_complexity d);
  let reparsed =
    Device.of_dict_string ~name:"custom2" ~n_qubits:5 (Device.to_dict_string d)
  in
  check_bool "round trip" true
    (Device.couplings d = Device.couplings reparsed);
  (* The paper's published map strings parse to the shipped devices. *)
  let qx2 =
    Device.of_dict_string ~name:"qx2" ~n_qubits:5 "{0:[1,2], 1:[2], 3:[2,4], 4:[2]}"
  in
  check_bool "matches built-in ibmqx2" true
    (Device.couplings qx2 = Device.couplings Device.Ibm.ibmqx2)

let test_dict_errors () =
  let expect_invalid s =
    match Device.of_dict_string ~name:"bad" ~n_qubits:5 s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("accepted malformed " ^ s)
  in
  expect_invalid "0:[1]";
  expect_invalid "{0:1}";
  expect_invalid "{0:[x]}";
  expect_invalid "{9:[1]}"

let test_make_errors () =
  (* Exact messages: they are part of the API surface users debug
     coupling maps with. *)
  let expect_message msg pairs =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Device.make ~name:"bad" ~n_qubits:4 pairs))
  in
  expect_message "Device.make: self-coupling" [ (0, 0) ];
  expect_message "Device.make: coupling (0,9) outside register" [ (0, 9) ];
  expect_message "Device.make: duplicate coupling (0,1)" [ (0, 1); (0, 1) ];
  Alcotest.check_raises "zero-qubit register"
    (Invalid_argument "Device.make: need at least one qubit") (fun () ->
      ignore (Device.make ~name:"bad" ~n_qubits:0 []))

let test_tokyo20 () =
  let d = Device.Ibm.tokyo20 in
  check_int "20 qubits" 20 (Device.n_qubits d);
  check_bool "connected" true (Device.is_connected d);
  (* Bidirectional map: every coupling exists in both directions. *)
  check_bool "bidirectional" true
    (List.for_all
       (fun (a, b) -> Device.allows_cnot d ~control:b ~target:a)
       (Device.couplings d));
  check_bool "denser than ibmqx5" true
    (Device.coupling_complexity d > Device.coupling_complexity Device.Ibm.ibmqx5)

let test_new_targets_compile () =
  (* The Section 3 commercial machine and the future-work ion trap both
     work as compile targets. *)
  let cascade =
    Circuit.make ~n:4
      [
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
        Gate.Cnot { control = 2; target = 3 };
      ]
  in
  List.iter
    (fun device ->
      let r =
        Compiler.compile (Compiler.default_options ~device)
          (Compiler.Quantum cascade)
      in
      check_bool
        (Device.name device ^ " verified")
        true
        (Compiler.verified r.Compiler.verification))
    [ Device.Ibm.tokyo20; Device.ion_trap ~n_qubits:5 ]

let test_ion_trap () =
  let d = Device.ion_trap ~n_qubits:5 in
  check_bool "complexity 1" true
    (abs_float (Device.coupling_complexity d -. 1.0) < 1e-12);
  check_bool "all-to-all" true (Device.allows_cnot d ~control:4 ~target:0);
  check_bool "not the simulator pseudo-device" true
    (not (Device.is_simulator d));
  (* Routing on an ion trap never inserts SWAPs. *)
  let c = Circuit.make ~n:5 [ Gate.Cnot { control = 0; target = 4 } ] in
  check_int "no rerouting" 1
    (Circuit.gate_count (Route.route_circuit d c));
  match Device.ion_trap ~n_qubits:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted 1-qubit ion trap"

let test_registry () =
  check_int "registry size" 7 (List.length (Device.registry ()));
  check_bool "find ibmqx5" true (Device.name (Device.find "ibmqx5") = "ibmqx5");
  (match Device.find "nonexistent" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "found nonexistent device")

let test_big96_structure () =
  let d = Device.Ibm.big96 in
  (* 6 rows x 15 horizontal + 5 gaps x 8 vertical = 90 + 40 couplings. *)
  check_int "coupling count" 130 (List.length (Device.couplings d));
  check_bool "lower complexity than ibmqx5" true
    (Device.coupling_complexity d < Device.coupling_complexity Device.Ibm.ibmqx5);
  (* The Table 7 benchmark qubits are all present and routable. *)
  check_bool "q85 exists" true (Device.neighbors d 85 <> [])

let prop_complexity_bounds =
  QCheck2.Test.make ~name:"complexity in (0,1] for connected maps" ~count:50
    QCheck2.Gen.(int_range 2 10)
    (fun n ->
      (* Chain device: always connected. *)
      let pairs = List.init (n - 1) (fun i -> (i, i + 1)) in
      let d = Device.make ~name:"chain" ~n_qubits:n pairs in
      let c = Device.coupling_complexity d in
      c > 0.0 && c <= 1.0 && Device.is_connected d)

let () =
  Alcotest.run "device"
    [
      ( "table2",
        [
          Alcotest.test_case "coupling complexities" `Quick
            test_table2_complexities;
          Alcotest.test_case "device sizes" `Quick test_device_sizes;
        ] );
      ( "maps",
        [
          Alcotest.test_case "directed coupling" `Quick test_directed_coupling;
          Alcotest.test_case "coupling lookups allocate nothing" `Quick
            test_coupling_lookups_allocate_nothing;
          Alcotest.test_case "fig5 adjacency" `Quick test_fig5_adjacency;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "simulator" `Quick test_simulator;
          Alcotest.test_case "big96" `Quick test_big96_structure;
          Alcotest.test_case "tokyo20" `Quick test_tokyo20;
          Alcotest.test_case "ion trap" `Quick test_ion_trap;
          Alcotest.test_case "new targets compile" `Quick
            test_new_targets_compile;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "dict round trip" `Quick test_dict_roundtrip;
          Alcotest.test_case "dict errors" `Quick test_dict_errors;
          Alcotest.test_case "make errors" `Quick test_make_errors;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_complexity_bounds ]);
    ]
