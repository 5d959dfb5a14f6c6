(* Shared generators and assertions for the property-based tests. *)

(* --- bridges from the seeded lib/fuzz generators ---

   The fuzz subsystem and the QCheck2 suites draw from one generator
   source, so a distribution fix (a new edge angle, a new device
   topology) reaches both at once.  [Fuzz.Gen.t] is a plain
   [Random.State.t -> 'a], which QCheck2 lifts directly; shrinking is
   left to the fuzz engine's own shrinker. *)

let of_fuzz_gen g = QCheck2.Gen.make_primitive ~gen:g ~shrink:(fun _ -> Seq.empty)

(* A random circuit over the full gate set, from the fuzz generators
   (widths 1..max_qubits, rotation edge angles included). *)
let random_circuit ?(max_qubits = 8) ?(max_gates = 16) () =
  of_fuzz_gen (Fuzz.Gen.circuit ?gate:None ~max_qubits ~max_gates)

(* A random connected device from the fuzz generators (chains, rings,
   stars, spanning-tree-plus-edges).  [min_qubits] lets suites that pin
   their circuit width demand a device at least that wide. *)
let gen_device ?(min_qubits = 2) ?(max_qubits = 6) () =
  let rec draw st =
    let d = Fuzz.Gen.device ~max_qubits st in
    if Device.n_qubits d >= min_qubits then d else draw st
  in
  of_fuzz_gen draw

(* Dense-oracle unitary equality with an explicit tolerance.  Widens
   the narrower circuit so registers of different sizes compare as the
   same operator on the larger one; callers keep widths within
   [Sim.max_unitary_qubits]. *)
let assert_unitary_equal ?(tol = 1e-9) ?(up_to_phase = false) msg a b =
  let n = max (Circuit.n_qubits a) (Circuit.n_qubits b) in
  let ua = Sim.unitary (Circuit.widen a n)
  and ub = Sim.unitary (Circuit.widen b n) in
  let eq =
    if up_to_phase then Mathkit.Matrix.equal_up_to_global_phase ~eps:tol ua ub
    else Mathkit.Matrix.approx_equal ~eps:tol ua ub
  in
  if not eq then
    Alcotest.failf "%s: unitaries differ beyond tolerance %g\n-- a --\n%s-- b --\n%s"
      msg tol (Circuit.to_string a) (Circuit.to_string b)

let gen_qubit n = QCheck2.Gen.int_bound (n - 1)

(* Two distinct qubits in [0, n). *)
let gen_pair n =
  QCheck2.Gen.(
    pair (gen_qubit n) (int_bound (n - 2)) |> map (fun (a, d) ->
        let b = (a + 1 + d) mod n in
        (a, b)))

let gen_triple n =
  QCheck2.Gen.(
    triple (gen_qubit n) (int_bound (n - 2)) (int_bound (n - 3))
    |> map (fun (a, d1, d2) ->
           let b = (a + 1 + d1) mod n in
           let c_candidates =
             List.filter (fun q -> q <> a && q <> b)
               (List.init n (fun i -> i))
           in
           let c = List.nth c_candidates (d2 mod List.length c_candidates) in
           (a, b, c)))

(* Angles for random rotation gates: a mix of special values (where
   fusion rules fire) and generic ones. *)
let gen_angle =
  let pi = 4.0 *. atan 1.0 in
  QCheck2.Gen.oneofl
    [ pi; -.pi; pi /. 2.0; pi /. 4.0; -.pi /. 4.0; 1.0; -0.7; 2.5; 0.3 ]

(* A random gate from the full gate set on an n-qubit register (n >= 3). *)
let gen_gate n =
  let open QCheck2.Gen in
  let single ctor = map ctor (gen_qubit n) in
  let rotation ctor = map2 (fun theta q -> ctor theta q) gen_angle (gen_qubit n) in
  oneof
    [
      single (fun q -> Gate.X q);
      single (fun q -> Gate.Y q);
      single (fun q -> Gate.Z q);
      single (fun q -> Gate.H q);
      single (fun q -> Gate.S q);
      single (fun q -> Gate.Sdg q);
      single (fun q -> Gate.T q);
      single (fun q -> Gate.Tdg q);
      rotation (fun theta q -> Gate.Rx (theta, q));
      rotation (fun theta q -> Gate.Ry (theta, q));
      rotation (fun theta q -> Gate.Rz (theta, q));
      rotation (fun theta q -> Gate.Phase (theta, q));
      map (fun (a, b) -> Gate.Cnot { control = a; target = b }) (gen_pair n);
      map (fun (a, b) -> Gate.Cz (a, b)) (gen_pair n);
      map (fun (a, b) -> Gate.Swap (a, b)) (gen_pair n);
      map
        (fun (a, b, c) -> Gate.Toffoli { c1 = a; c2 = b; target = c })
        (gen_triple n);
    ]

(* A random gate from the transmon-native set only. *)
let gen_native_gate n =
  let open QCheck2.Gen in
  let single ctor = map ctor (gen_qubit n) in
  oneof
    [
      single (fun q -> Gate.X q);
      single (fun q -> Gate.Y q);
      single (fun q -> Gate.Z q);
      single (fun q -> Gate.H q);
      single (fun q -> Gate.S q);
      single (fun q -> Gate.Sdg q);
      single (fun q -> Gate.T q);
      single (fun q -> Gate.Tdg q);
      map (fun (a, b) -> Gate.Cnot { control = a; target = b }) (gen_pair n);
    ]

let gen_circuit ?(max_gates = 20) n =
  QCheck2.Gen.(
    int_bound max_gates >>= fun len ->
    list_repeat len (gen_gate n) |> map (fun gates -> Circuit.make ~n gates))

let gen_native_circuit ?(max_gates = 20) n =
  QCheck2.Gen.(
    int_bound max_gates >>= fun len ->
    list_repeat len (gen_native_gate n)
    |> map (fun gates -> Circuit.make ~n gates))

(* A random classical reversible circuit (X / CNOT / Toffoli / SWAP). *)
let gen_classical_circuit ?(max_gates = 20) n =
  let open QCheck2.Gen in
  let gen_gate =
    oneof
      [
        map (fun q -> Gate.X q) (gen_qubit n);
        map (fun (a, b) -> Gate.Cnot { control = a; target = b }) (gen_pair n);
        map (fun (a, b) -> Gate.Swap (a, b)) (gen_pair n);
        map
          (fun (a, b, c) -> Gate.Toffoli { c1 = a; c2 = b; target = c })
          (gen_triple n);
      ]
  in
  int_bound max_gates >>= fun len ->
  list_repeat len gen_gate |> map (fun gates -> Circuit.make ~n gates)

let print_circuit c = Circuit.to_string c

(* Structural equality modulo control ordering of NOT-family gates. *)
let canonical_gate = function
  | Gate.Toffoli { c1; c2; target } -> Gate.mct [ c1; c2 ] target
  | Gate.Mct { controls; target } -> Gate.mct controls target
  | g -> g

let equal_canonical a b =
  Circuit.n_qubits a = Circuit.n_qubits b
  && List.equal Gate.equal
       (List.map canonical_gate (Circuit.gates a))
       (List.map canonical_gate (Circuit.gates b))

(* Write [text] to a fresh file at [path]. *)
let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)
