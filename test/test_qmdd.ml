open Mathkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_identity_structure () =
  let m = Qmdd.create ~n:4 in
  let id = Qmdd.identity m in
  (* Quasi-reduced identity: one node per variable plus the terminal. *)
  check_int "identity node count" 5 (Qmdd.node_count id);
  check_bool "identity is identity" true (Qmdd.is_identity m id);
  check_bool "matrix form" true (Matrix.is_identity (Qmdd.to_matrix m id))

let test_fig1_cnot_qmdd () =
  (* Paper Fig. 1: the CNOT with control x0, target x1.  U00 = I,
     U11 = X, off-diagonal quadrants 0. *)
  let m = Qmdd.create ~n:2 in
  let e = Qmdd.gate m (Gate.Cnot { control = 0; target = 1 }) in
  check_bool "matches dense CNOT" true
    (Matrix.approx_equal (Qmdd.to_matrix m e)
       (Gate.embedded_matrix ~n:2 (Gate.Cnot { control = 0; target = 1 })));
  (* x0 node, two distinct x1 nodes (I and X patterns), terminal. *)
  check_int "node count" 4 (Qmdd.node_count e);
  let dot = Qmdd.to_dot m e in
  let contains_sub s sub =
    let n = String.length s and k = String.length sub in
    let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
    scan 0
  in
  check_bool "dot mentions x0" true (contains_sub dot "x0");
  check_bool "ascii mentions terminal" true
    (contains_sub (Qmdd.to_ascii m e) "terminal")

let test_gate_qmdds_match_dense () =
  let gates =
    [
      Gate.H 1;
      Gate.T 2;
      Gate.Sdg 0;
      Gate.Cnot { control = 2; target = 0 };
      Gate.Cz (0, 2);
      Gate.Swap (1, 2);
      Gate.Toffoli { c1 = 1; c2 = 2; target = 0 };
      Gate.Mct { controls = [ 0; 2 ]; target = 1 };
    ]
  in
  List.iter
    (fun g ->
      let m = Qmdd.create ~n:3 in
      let e = Qmdd.gate m g in
      check_bool
        (Printf.sprintf "%s QMDD = dense" (Gate.to_string g))
        true
        (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m e)
           (Gate.embedded_matrix ~n:3 g)))
    gates

let test_multiply_matches_dense () =
  let m = Qmdd.create ~n:2 in
  let h = Qmdd.gate m (Gate.H 0) in
  let cnot = Qmdd.gate m (Gate.Cnot { control = 0; target = 1 }) in
  let product = Qmdd.multiply m cnot h in
  let dense =
    Matrix.mul
      (Gate.embedded_matrix ~n:2 (Gate.Cnot { control = 0; target = 1 }))
      (Gate.embedded_matrix ~n:2 (Gate.H 0))
  in
  check_bool "CNOT*H matches" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m product) dense)

let test_canonicity () =
  (* Z built two ways lands on the same node: S.S = Z. *)
  let m = Qmdd.create ~n:1 in
  let z = Qmdd.gate m (Gate.Z 0) in
  let s = Qmdd.gate m (Gate.S 0) in
  let ss = Qmdd.multiply m s s in
  check_bool "S*S = Z canonically" true (Qmdd.equal z ss);
  (* H.H = I *)
  let h = Qmdd.gate m (Gate.H 0) in
  check_bool "H*H = I" true (Qmdd.is_identity m (Qmdd.multiply m h h))

let test_add () =
  let m = Qmdd.create ~n:1 in
  let x = Qmdd.gate m (Gate.X 0) in
  let z = Qmdd.gate m (Gate.Z 0) in
  let sum = Qmdd.add m x z in
  let dense =
    Matrix.add (Gate.embedded_matrix ~n:1 (Gate.X 0))
      (Gate.embedded_matrix ~n:1 (Gate.Z 0))
  in
  check_bool "X+Z matches dense" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m sum) dense);
  let neg_x = Qmdd.multiply m (Qmdd.gate m (Gate.Z 0)) (Qmdd.multiply m x (Qmdd.gate m (Gate.Z 0))) in
  (* X + ZXZ = 0 *)
  let zero_sum = Qmdd.add m x neg_x in
  check_bool "X + ZXZ = 0" true (Qmdd.equal zero_sum (Qmdd.zero m))

let test_of_circuit_and_entry () =
  let c =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let m = Qmdd.create ~n:2 in
  let e = Qmdd.of_circuit m c in
  let expected = Cx.of_float Cx.inv_sqrt2 in
  check_bool "entry (0,0)" true
    (Cx.approx_equal (Qmdd.entry m e ~row:0 ~col:0) expected);
  check_bool "entry (3,0)" true
    (Cx.approx_equal (Qmdd.entry m e ~row:3 ~col:0) expected);
  check_bool "entry (1,0)" true (Cx.is_zero (Qmdd.entry m e ~row:1 ~col:0));
  check_bool "matches dense unitary" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m e) (Sim.unitary c))

let test_equivalence_phase () =
  let z = Circuit.make ~n:1 [ Gate.Z 0 ] in
  let xzx = Circuit.make ~n:1 [ Gate.X 0; Gate.Z 0; Gate.X 0 ] in
  check_bool "Z ~ XZX up to phase" true (Qmdd.equivalent z xzx);
  check_bool "Z <> XZX exactly" false (Qmdd.equivalent ~up_to_phase:false z xzx);
  let ss = Circuit.make ~n:1 [ Gate.S 0; Gate.S 0 ] in
  check_bool "Z = SS exactly" true (Qmdd.equivalent ~up_to_phase:false z ss)

let test_inequivalence () =
  let a = Circuit.make ~n:2 [ Gate.Cnot { control = 0; target = 1 } ] in
  let b = Circuit.make ~n:2 [ Gate.Cnot { control = 1; target = 0 } ] in
  check_bool "distinct CNOTs differ" false (Qmdd.equivalent a b);
  let almost =
    Circuit.make ~n:2
      [ Gate.H 0; Gate.Cnot { control = 0; target = 1 }; Gate.T 1 ]
  in
  let original =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  check_bool "extra T detected" false (Qmdd.equivalent almost original)

let test_node_budget () =
  let c = Testutil.gen_circuit ~max_gates:20 4 |> fun g ->
    QCheck2.Gen.generate1 g
  in
  Alcotest.check_raises "budget exceeded" Qmdd.Node_budget_exceeded (fun () ->
      ignore (Qmdd.equivalent ~node_budget:2 c c))

let test_deadline () =
  let c =
    Circuit.make ~n:3
      [
        Gate.H 0;
        Gate.T 1;
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 2 };
      ]
  in
  (* An already-expired deadline aborts before any real work. *)
  let past = Int64.sub (Trace.now_ns ()) 1L in
  Alcotest.check_raises "expired deadline" Qmdd.Deadline_exceeded (fun () ->
      ignore (Qmdd.equivalent ~deadline_ns:past c c));
  (* A generous one never fires. *)
  let future = Int64.add (Trace.now_ns ()) 60_000_000_000L in
  check_bool "generous deadline passes" true
    (Qmdd.equivalent ~deadline_ns:future c c)

let test_swap_chain_identity () =
  (* SWAP expressed as 3 CNOTs is the SWAP gate: paper Fig. 3. *)
  let swap = Circuit.make ~n:2 [ Gate.Swap (0, 1) ] in
  let cnots =
    Circuit.make ~n:2
      [
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 0 };
        Gate.Cnot { control = 0; target = 1 };
      ]
  in
  check_bool "Fig 3 identity" true (Qmdd.equivalent ~up_to_phase:false swap cnots)

let test_adjoint_and_trace () =
  let m = Qmdd.create ~n:2 in
  let c =
    Circuit.make ~n:2 [ Gate.H 0; Gate.T 1; Gate.Cnot { control = 0; target = 1 } ]
  in
  let e = Qmdd.of_circuit m c in
  let adj = Qmdd.adjoint m e in
  check_bool "adjoint matches dense" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m adj)
       (Matrix.dagger (Sim.unitary c)));
  check_bool "U-dagger U = I" true
    (Qmdd.is_identity m (Qmdd.multiply m adj e));
  (* Trace of the identity is the dimension; trace of X is 0. *)
  check_bool "trace identity" true
    (Cx.approx_equal (Qmdd.trace m (Qmdd.identity m)) (Cx.of_float 4.0));
  check_bool "trace X" true
    (Cx.is_zero (Qmdd.trace m (Qmdd.gate m (Gate.X 0))))

let test_process_fidelity () =
  let bell =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  check_bool "self fidelity 1" true
    (abs_float (Qmdd.process_fidelity bell bell -. 1.0) < 1e-9);
  (* Global phase does not reduce fidelity. *)
  let phased =
    Circuit.make ~n:2
      ([ Gate.X 0; Gate.Z 0; Gate.X 0; Gate.Z 0 ] @ Circuit.gates bell)
  in
  check_bool "phase invariant" true
    (abs_float (Qmdd.process_fidelity bell phased -. 1.0) < 1e-9);
  (* A genuinely different circuit scores below 1. *)
  let other = Circuit.make ~n:2 [ Gate.H 0 ] in
  check_bool "different circuits score lower" true
    (Qmdd.process_fidelity bell other < 0.99)

let prop_trace_matches_dense =
  QCheck2.Test.make ~name:"QMDD trace = dense trace" ~count:30
    (Testutil.gen_circuit ~max_gates:10 3)
    (fun c ->
      let m = Qmdd.create ~n:3 in
      let e = Qmdd.of_circuit m c in
      let dense = Sim.unitary c in
      let dense_trace =
        List.fold_left
          (fun acc k -> Cx.add acc (Matrix.get dense k k))
          Cx.zero
          (List.init 8 (fun i -> i))
      in
      Cx.approx_equal ~eps:1e-7 (Qmdd.trace m e) dense_trace)

let bits_of_int ~n k = Array.init n (fun q -> (k lsr (n - 1 - q)) land 1 = 1)

let test_basis_simulation () =
  let m = Qmdd.create ~n:2 in
  let bell =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let from = bits_of_int ~n:2 0 in
  let state = Qmdd.run_basis m bell ~from in
  let expected = Cx.of_float Cx.inv_sqrt2 in
  let amp k = Qmdd.amplitude m state ~from (bits_of_int ~n:2 k) in
  check_bool "amp |00>" true (Cx.approx_equal (amp 0) expected);
  check_bool "amp |11>" true (Cx.approx_equal (amp 3) expected);
  check_bool "amp |01>" true (Cx.is_zero (amp 1));
  check_bool "superposition detected" true
    (Qmdd.classical_outcome m state ~from = None)

let test_classical_outcome () =
  let m = Qmdd.create ~n:3 in
  let c =
    Circuit.make ~n:3
      [ Gate.X 0; Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ]
  in
  (* From |010>: X flips q0 -> |110>, Toffoli fires -> |111>. *)
  let from = bits_of_int ~n:3 0b010 in
  let state = Qmdd.run_basis m c ~from in
  check_bool "maps |010> to |111>" true
    (Qmdd.classical_outcome m state ~from = Some (bits_of_int ~n:3 0b111));
  (* From |000>: X -> |100>, Toffoli idle. *)
  let from0 = bits_of_int ~n:3 0 in
  let state0 = Qmdd.run_basis m c ~from:from0 in
  check_bool "maps |000> to |100>" true
    (Qmdd.classical_outcome m state0 ~from:from0 = Some (bits_of_int ~n:3 0b100))

let test_wide_functional_run () =
  (* Functional end-to-end check at full device width: compile a T6
     gate to the 96-qubit machine and run the mapped circuit on the
     all-controls-set basis state; the target (q25) must flip even
     though the dense simulator could never touch 2^96 amplitudes. *)
  let cascade = Circuit.make ~n:96 [ Gate.mct [ 1; 2; 3; 4; 5 ] 25 ] in
  let opts =
    {
      (Compiler.default_options ~device:Device.Ibm.big96) with
      Compiler.verification = Compiler.Skip;
    }
  in
  let r = Compiler.compile opts (Compiler.Quantum cascade) in
  let set_bits qs =
    Array.init 96 (fun q -> List.mem q qs)
  in
  let from = set_bits [ 1; 2; 3; 4; 5 ] in
  let m = Qmdd.create ~n:96 in
  let state = Qmdd.run_basis m r.Compiler.optimized ~from in
  check_bool "controls set: target flips" true
    (Qmdd.classical_outcome m state ~from = Some (set_bits [ 1; 2; 3; 4; 5; 25 ]));
  (* One control missing: nothing happens. *)
  let from' = set_bits [ 1; 2; 3; 4 ] in
  let state' = Qmdd.run_basis m r.Compiler.optimized ~from:from' in
  check_bool "control missing: identity" true
    (Qmdd.classical_outcome m state' ~from:from' = Some from')

let prop_basis_run_matches_dense =
  QCheck2.Test.make ~name:"run_basis matches dense simulation" ~count:25
    (Testutil.gen_circuit ~max_gates:10 3)
    (fun c ->
      let m = Qmdd.create ~n:3 in
      let from = bits_of_int ~n:3 5 in
      let state = Qmdd.run_basis m c ~from in
      let dense = Sim.run c (Sim.basis_state ~n:3 5) in
      List.for_all
        (fun k ->
          Cx.approx_equal ~eps:1e-7
            (Qmdd.amplitude m state ~from (bits_of_int ~n:3 k))
            dense.(k))
        (List.init 8 (fun i -> i)))

let prop_qmdd_matches_dense =
  QCheck2.Test.make ~name:"random circuit: QMDD = dense unitary" ~count:40
    (Testutil.gen_circuit ~max_gates:15 3)
    (fun c ->
      let m = Qmdd.create ~n:3 in
      let e = Qmdd.of_circuit m c in
      Matrix.approx_equal ~eps:1e-7 (Qmdd.to_matrix m e) (Sim.unitary c))

let prop_equivalent_reflexive_shuffled =
  (* A circuit is equivalent to itself with commuting prefix moved: here
     simply itself (canonical reflexivity through the alternating
     scheme). *)
  QCheck2.Test.make ~name:"equivalent c c" ~count:40
    (Testutil.gen_circuit ~max_gates:15 4)
    (fun c -> Qmdd.equivalent ~up_to_phase:false c c)

let prop_inverse_equivalence =
  QCheck2.Test.make ~name:"c . inverse c ~ empty" ~count:40
    (Testutil.gen_circuit ~max_gates:12 3)
    (fun c ->
      Qmdd.equivalent ~up_to_phase:false
        (Circuit.concat c (Circuit.inverse c))
        (Circuit.empty 3))

let prop_gate_qmdd_node_linear =
  (* Gate diagrams stay linear in n even on wide registers. *)
  QCheck2.Test.make ~name:"gate QMDD linear size" ~count:30
    (Testutil.gen_gate 16)
    (fun g ->
      let m = Qmdd.create ~n:16 in
      (* Controlled gates need at most ~3 nodes per level, SWAPs (three
         multiplied CNOTs) up to ~6. *)
      Qmdd.node_count (Qmdd.gate m g) <= 6 * 16 + 10)

let test_canonical_weight_stability () =
  (* Two interleaved weight streams that share a value-table bucket
     without matching must canonicalize stably: the value table keeps
     every established representative (per-bucket chains — a miss
     appends, it never evicts), so replaying either stream maps onto its
     original representative and the unique-node count stays flat
     instead of growing with every stream switch.  A bucket is 1e-9
     wide and the matching tolerance is 2e-9 * min(1, |w|), so only
     weights below 1/2 can share a bucket without matching.  Ry(θ) puts
     its top-left entry cos(θ/2) on the returned edge, and divides the
     node's off-diagonal weights by it, so a shift of cos(θ/2) by x
     moves them by about 12x: past their own tolerance, a new node. *)
  let m = Qmdd.create ~n:1 in
  (* The Ry whose top-left entry is [c].  Each [turn] adds 4π, Ry's
     period: the same matrix under a new gate, so that a replay reaches
     the value table instead of the gate memo. *)
  let ry ?(turn = 0) c =
    Gate.Ry ((2. *. acos c) +. (4. *. Float.pi *. float_of_int turn), 0)
  in
  (* Both 0.3 +- 4e-10 fall in one bucket, 8e-10 apart: more than the
     6e-10 tolerance there, so each deserves its own representative. *)
  let a = 0.3 -. 4e-10 and b = 0.3 +. 4e-10 in
  (* 3e-10 below [a], in the bucket below: must share [a]'s node. *)
  let a_noisy = 0.3 -. 7e-10 in
  let ea = Qmdd.gate m (ry a) in
  Alcotest.(check bool)
    "near-equal weights canonicalize to one node" true
    (Qmdd.equal ea (Qmdd.gate m (ry a_noisy)));
  ignore (Qmdd.gate m (ry b));
  let baseline = (Qmdd.stats m).Qmdd.unique_nodes in
  for turn = 1 to 50 do
    ignore (Qmdd.gate m (ry ~turn a));
    ignore (Qmdd.gate m (ry ~turn b));
    ignore (Qmdd.gate m (ry ~turn a_noisy))
  done;
  let after = (Qmdd.stats m).Qmdd.unique_nodes in
  Alcotest.(check int) "unique-node count stays flat" baseline after;
  (* And replaying stream A still yields the original edge, weight
     included. *)
  Alcotest.(check bool) "representative stable" true
    (Qmdd.equal ea (Qmdd.gate m (ry ~turn:51 a)))

(* ------------------------------------------------------------------ *)
(* The aligner and the diff-paced schedule                              *)

(* The length of a longest common subsequence, by the quadratic
   dynamic program: the reference the aligner is checked against. *)
let lcs_length (a : Gate.t array) (b : Gate.t array) =
  let n = Array.length a and m = Array.length b in
  let t = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      t.(i).(j) <-
        (if a.(i) = b.(j) then 1 + t.(i + 1).(j + 1)
         else max t.(i + 1).(j) t.(i).(j + 1))
    done
  done;
  t.(0).(0)

(* The pairs rise strictly in both coordinates and join equal gates. *)
let valid_pairs a b pairs =
  let rec rising = function
    | (i, j) :: ((i', j') :: _ as rest) -> i < i' && j < j' && rising rest
    | [ _ ] | [] -> true
  in
  rising pairs
  && List.for_all
       (fun (i, j) ->
         i >= 0 && j >= 0 && i < Array.length a && j < Array.length b
         && a.(i) = b.(j))
       pairs

let alphabet =
  [| Gate.X 0; Gate.H 0; Gate.T 1; Gate.Cnot { control = 0; target = 1 } |]

let gen_word =
  QCheck2.Gen.(
    int_bound 40 >>= fun len ->
    array_repeat len (int_bound (Array.length alphabet - 1))
    |> map (Array.map (fun k -> alphabet.(k))))

let prop_common_subsequence =
  QCheck2.Test.make ~name:"common_subsequence is a longest one" ~count:300
    QCheck2.Gen.(pair gen_word gen_word)
    (fun (a, b) ->
      let pairs = Qmdd.common_subsequence a b in
      valid_pairs a b pairs && List.length pairs = lcs_length a b)

let test_common_subsequence_edges () =
  let word = Array.init 5000 (fun i -> alphabet.(i * 7 mod 4)) in
  let pairs a b = Qmdd.common_subsequence a b in
  check_bool "empty, empty" true (pairs [||] [||] = []);
  check_bool "empty, word" true (pairs [||] word = []);
  check_bool "word, empty" true (pairs word [||] = []);
  check_bool "identical words match everywhere" true
    (pairs word word = List.init 5000 (fun i -> (i, i)));
  (* 1,001 gates on each side that share nothing before one common last
     gate: an LCS of one, found only after about a million diagonal
     extensions, past the bound of 256 per input gate. *)
  let last = Gate.H 2 in
  let a = Array.append (Array.init 1001 (fun i -> Gate.X (i mod 2))) [| last |]
  and b = Array.append (Array.init 1001 (fun i -> Gate.Z (i mod 2))) [| last |] in
  check_int "the LCS is one gate" 1 (lcs_length a b);
  check_bool "past the work bound: no pairs" true (pairs a b = []);
  (* The check still runs, under the proportional schedule. *)
  let circuit gates = Circuit.make ~n:3 (Array.to_list gates) in
  check_bool "verdict past the work bound" true
    (Qmdd.equivalent (circuit a) (circuit a));
  check_bool "inequivalence past the work bound" false
    (Qmdd.equivalent (circuit a) (circuit b))

(* A random circuit on 2 to 6 qubits, and one gate for it. *)
let gen_small_circuit =
  QCheck2.Gen.(
    int_range 2 6 >>= fun n ->
    if n >= 3 then Testutil.gen_circuit ~max_gates:16 n
    else Testutil.gen_native_circuit ~max_gates:16 n)

let gen_gate_for n =
  if n >= 3 then Testutil.gen_gate n else Testutil.gen_native_gate n

(* One gate dropped, inserted or replaced at a random position. *)
let gen_edit c =
  let open QCheck2.Gen in
  let n = Circuit.n_qubits c and gates = Circuit.gates c in
  let len = List.length gates in
  let at k f =
    List.concat (List.mapi (fun i g -> if i = k then f g else [ g ]) gates)
  in
  let edited =
    if len = 0 then map (fun g -> [ g ]) (gen_gate_for n)
    else
      int_bound (len - 1) >>= fun k ->
      oneof
        [
          return (at k (fun _ -> []));
          map (fun g' -> at k (fun g -> [ g'; g ])) (gen_gate_for n);
          map (fun g' -> at k (fun _ -> [ g' ])) (gen_gate_for n);
        ]
  in
  map (Circuit.make ~n) edited

(* An MCT of at least 3 controls on [n] qubits that leaves a qubit free
   for its lowering to borrow. *)
let gen_mct n =
  QCheck2.Gen.(
    int_range 3 (n - 2) >>= fun k ->
    map
      (function
        | target :: rest -> Gate.mct (List.filteri (fun i _ -> i < k) rest) target
        | [] -> assert false)
      (shuffle_l (List.init n Fun.id)))

(* A circuit on 5 or 6 qubits with Toffoli and MCT gates among the
   others, and its gate-by-gate lowering: each wide gate of the one
   faces a run of one- and two-qubit gates of the other, whose blocks
   flush as the run reaches a third qubit. *)
let gen_lowered_pair =
  QCheck2.Gen.(
    int_range 5 6 >>= fun n ->
    int_range 1 5 >>= fun len ->
    list_repeat len (frequency [ (3, Testutil.gen_gate n); (1, gen_mct n) ])
    |> map (fun gates ->
           ( Circuit.make ~n gates,
             Circuit.make ~n (List.concat_map (Decompose.lower_gate ~n) gates) )))

let prop_schedule_matches_dense =
  QCheck2.Test.make
    ~name:
      "diff-paced miter = dense oracle on optimized, lowered and edited \
       circuits"
    ~count:150
    QCheck2.Gen.(
      oneof
        [
          map (fun c -> (c, Optimize.optimize c)) gen_small_circuit;
          gen_lowered_pair;
        ]
      >>= fun (c, o) -> map (fun e -> (c, o, e)) (gen_edit o))
    (fun (c, o, e) ->
      List.for_all
        (fun (a, b) ->
          List.for_all
            (fun up_to_phase ->
              Qmdd.equivalent ~up_to_phase a b
              = Sim.equivalent ~up_to_phase a b)
            [ true; false ])
        [ (c, o); (c, e); (o, c); (e, c) ])

let test_fused_block_flush () =
  (* The Clifford+T Toffoli (Nielsen & Chuang, Fig. 4.9) on controls 0
     and 1 and target 2.  Its first run, H 2; CNOT 1->2; [first], stays
     on qubits 1 and 2, and its block flushes when CNOT 0->2 brings in
     qubit 0. *)
  let cx c t = Gate.Cnot { control = c; target = t } in
  let lowering first =
    Circuit.make ~n:3
      [
        Gate.H 2; cx 1 2; first; cx 0 2; Gate.T 2; cx 1 2; Gate.Tdg 2; cx 0 2;
        Gate.T 1; Gate.T 2; Gate.H 2; cx 0 1; Gate.T 0; Gate.Tdg 1; cx 0 1;
      ]
  in
  let toffoli = Circuit.make ~n:3 [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ] in
  let right = lowering (Gate.Tdg 2) and wrong = lowering (Gate.T 2) in
  check_bool "dense: T in place of Tdg breaks it" false
    (Sim.equivalent toffoli wrong);
  (* Each pair on either side of the miter. *)
  let check name expected ~up_to_phase a b =
    check_bool name expected (Qmdd.equivalent ~up_to_phase a b);
    check_bool (name ^ ", sides swapped") expected
      (Qmdd.equivalent ~up_to_phase b a)
  in
  check "the lowering holds" true ~up_to_phase:false toffoli right;
  List.iter
    (fun up_to_phase ->
      check "T in place of Tdg, against the Toffoli" false ~up_to_phase
        toffoli wrong;
      check "T in place of Tdg, against the right lowering" false
        ~up_to_phase right wrong)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* The multiply kernel: identity operands and the gate memo             *)

let mul_probes m =
  let s = Qmdd.stats m in
  s.Qmdd.mul_cache_hits + s.Qmdd.mul_cache_misses

let test_identity_operands () =
  let m = Qmdd.create ~n:3 in
  let e =
    Qmdd.of_circuit m
      (Circuit.make ~n:3
         [
           Gate.H 0;
           Gate.Cnot { control = 0; target = 2 };
           Gate.T 1;
           Gate.Ry (0.3, 2);
           Gate.Swap (0, 1);
         ])
  in
  let id = Qmdd.identity m in
  let probes = mul_probes m in
  check_bool "I * e = e" true (Qmdd.equal (Qmdd.multiply m id e) e);
  check_bool "e * I = e" true (Qmdd.equal (Qmdd.multiply m e id) e);
  check_int "identity operands bypass the multiply cache" probes
    (mul_probes m);
  (* Rz(a) Phase(-a) = exp(-ia/2) I: a global-phase-scaled identity
     scales the other operand by its phase, from either side. *)
  let a = 0.7 in
  let phased_id =
    Qmdd.of_circuit m (Circuit.make ~n:3 [ Gate.Phase (-.a, 1); Gate.Rz (a, 1) ])
  in
  check_bool "scaled identity" true
    (Qmdd.is_identity_up_to_phase m phased_id
    && not (Qmdd.is_identity m phased_id));
  let phase = Cx.make (cos (a /. 2.0)) (-.sin (a /. 2.0)) in
  let scaled_by_phase product =
    List.for_all
      (fun (row, col) ->
        Cx.approx_equal ~eps:1e-9
          (Qmdd.entry m product ~row ~col)
          (Cx.mul phase (Qmdd.entry m e ~row ~col)))
      (List.concat_map
         (fun row -> List.init 8 (fun col -> (row, col)))
         (List.init 8 Fun.id))
  in
  check_bool "phase * I * e" true
    (scaled_by_phase (Qmdd.multiply m phased_id e));
  check_bool "e * phase * I" true
    (scaled_by_phase (Qmdd.multiply m e phased_id));
  check_bool "both sides agree" true
    (Qmdd.equal (Qmdd.multiply m phased_id e) (Qmdd.multiply m e phased_id))

let test_gate_memo () =
  let m = Qmdd.create ~n:4 in
  let gates =
    [
      Gate.Swap (0, 3);
      Gate.Rz (0.3, 2);
      Gate.Ry (-1.1, 0);
      Gate.Phase (2.0, 3);
      Gate.Mct { controls = [ 0; 1; 3 ]; target = 2 };
      Gate.Cnot { control = 3; target = 1 };
    ]
  in
  let first = List.map (Qmdd.gate m) gates in
  let allocated = (Qmdd.stats m).Qmdd.allocated and probes = mul_probes m in
  List.iter2
    (fun g e ->
      check_bool
        (Printf.sprintf "%s rebuilt equal" (Gate.to_string g))
        true
        (Qmdd.equal e (Qmdd.gate m g));
      check_bool
        (Printf.sprintf "%s QMDD = dense" (Gate.to_string g))
        true
        (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m e)
           (Gate.embedded_matrix ~n:4 g)))
    gates first;
  check_int "repeat builds allocate nothing" allocated
    (Qmdd.stats m).Qmdd.allocated;
  check_int "repeat SWAP builds multiply nothing" probes (mul_probes m);
  (* The memoized SWAP is still the Fig. 3 product of three CNOTs. *)
  let cnot c t = Qmdd.gate m (Gate.Cnot { control = c; target = t }) in
  check_bool "SWAP = CNOT CNOT CNOT" true
    (Qmdd.equal (Qmdd.gate m (Gate.Swap (0, 3)))
       (Qmdd.multiply m (cnot 0 3) (Qmdd.multiply m (cnot 3 0) (cnot 0 3))))

(* Per-check [Qmdd.stats] of the whole-register staged proof of T6_b's
   first gate compiled to big96, as (unique, peak, allocated,
   multiply-cache hits, misses, add-cache hits, misses): reference =
   native, the 72 routed CNOT blocks, then unoptimized = optimized.
   Measured once the miter fused each side's unmatched runs into blocks
   of at most two qubits.  The two circuits of each of the checks 0-72
   share no gate, or are one and the same CNOT, a matched pair.  In
   check 73, 2,174 of the 2,176 optimized gates are matched in order.
   Unfused, check 0 peaked at 3,590 nodes and check 73 at 1,929; under
   proportional interleaving, before the miter followed the diff,
   check 73 peaked at 30,865. *)
let t6_prefix_checks =
  [|
    (2572, 2572, 2573, 2807, 2753, 554, 280); (266, 266, 267, 136, 213, 355, 247);
    (502, 502, 503, 341, 517, 504, 302); (266, 266, 267, 136, 213, 355, 247);
    (502, 502, 503, 341, 517, 504, 302); (167, 167, 168, 73, 87, 264, 230);
    (167, 167, 168, 73, 87, 264, 230); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (176, 176, 177, 53, 107, 284, 216);
    (176, 176, 177, 53, 107, 284, 216); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (259, 259, 260, 114, 193, 335, 229);
    (259, 259, 260, 114, 193, 335, 229); (171, 171, 172, 34, 90, 271, 205);
    (109, 109, 110, 7, 12, 198, 192); (171, 171, 172, 34, 90, 271, 205);
    (109, 109, 110, 7, 12, 198, 192); (110, 110, 111, 6, 10, 208, 196);
    (110, 110, 111, 6, 10, 208, 196); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (259, 259, 260, 114, 193, 335, 229);
    (259, 259, 260, 114, 193, 335, 229); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (176, 176, 177, 53, 107, 284, 216);
    (176, 176, 177, 53, 107, 284, 216); (266, 266, 267, 136, 213, 355, 247);
    (502, 502, 503, 341, 517, 504, 302); (266, 266, 267, 136, 213, 355, 247);
    (502, 502, 503, 341, 517, 504, 302); (167, 167, 168, 73, 87, 264, 230);
    (167, 167, 168, 73, 87, 264, 230); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (176, 176, 177, 53, 107, 284, 216);
    (176, 176, 177, 53, 107, 284, 216); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (259, 259, 260, 114, 193, 335, 229);
    (259, 259, 260, 114, 193, 335, 229); (171, 171, 172, 34, 90, 271, 205);
    (109, 109, 110, 7, 12, 198, 192); (171, 171, 172, 34, 90, 271, 205);
    (109, 109, 110, 7, 12, 198, 192); (110, 110, 111, 6, 10, 208, 196);
    (110, 110, 111, 6, 10, 208, 196); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (648, 648, 649, 463, 715, 582, 326);
    (266, 266, 267, 136, 213, 355, 247); (259, 259, 260, 114, 193, 335, 229);
    (259, 259, 260, 114, 193, 335, 229); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (98, 98, 99, 0, 2, 0, 0);
    (249, 249, 250, 120, 210, 340, 252); (176, 176, 177, 53, 107, 284, 216);
    (176, 176, 177, 53, 107, 284, 216); (1715, 1715, 1716, 6666, 2606, 1745, 1255);
  |]

(* [Qmdd.equivalent] on each pair of [checks] holds and ends with the
   statistics pinned in [pins], in order. *)
let check_pinned label pins checks =
  check_int (label ^ " checks") (Array.length pins) (List.length checks);
  List.iteri
    (fun i (a, b) ->
      let seen = ref None in
      check_bool
        (Printf.sprintf "%s %d holds" label i)
        true
        (Qmdd.equivalent ~up_to_phase:false ~stats:(fun s -> seen := Some s) a b);
      let s = Option.get !seen in
      let unique, peak, allocated, mul_hits, mul_misses, add_hits, add_misses =
        pins.(i)
      in
      List.iter
        (fun (field, expected, got) ->
          check_int (Printf.sprintf "%s %d %s" label i field) expected got)
        [
          ("unique", unique, s.Qmdd.unique_nodes);
          ("peak", peak, s.Qmdd.peak_unique_nodes);
          ("allocated", allocated, s.Qmdd.allocated);
          ("mul hits", mul_hits, s.Qmdd.mul_cache_hits);
          ("mul misses", mul_misses, s.Qmdd.mul_cache_misses);
          ("add hits", add_hits, s.Qmdd.add_cache_hits);
          ("add misses", add_misses, s.Qmdd.add_cache_misses);
        ])
    checks

(* The links of the compiler's staged proof of the same compile, each
   on the qubits it touches ([Circuit.compact]), with their statistics
   in the form of [t6_prefix_checks]: T6_b's one MCT = its Toffoli
   cascade, the cascade's 4 distinct Toffolis = their Clifford+T
   lowerings, the 12 distinct routed CNOT blocks = their CNOTs, then
   unoptimized = optimized.  Unfused, they allocated 5,349 nodes in
   all; fused, 4,013. *)
let t6_prefix_links =
  [|
    (177, 177, 178, 241, 258, 10, 18); (64, 64, 65, 11, 52, 0, 0);
    (64, 64, 65, 11, 52, 0, 0); (66, 66, 67, 16, 60, 0, 2);
    (81, 81, 82, 25, 57, 14, 30); (174, 174, 175, 136, 213, 91, 63);
    (412, 412, 413, 341, 517, 244, 122); (74, 74, 75, 73, 87, 34, 44);
    (4, 4, 5, 0, 2, 0, 0); (157, 157, 158, 120, 210, 92, 68);
    (83, 83, 84, 53, 107, 22, 30); (559, 559, 560, 463, 715, 324, 148);
    (174, 174, 175, 136, 213, 91, 63); (167, 167, 168, 114, 193, 71, 45);
    (78, 78, 79, 34, 90, 9, 19); (15, 15, 16, 7, 12, 2, 4);
    (16, 16, 17, 6, 10, 0, 8); (1630, 1630, 1631, 6666, 2606, 883, 405);
  |]

let test_t6_prefix_staged_proof () =
  (* Every check of the staged proof ends with exactly the statistics
     pinned above: a kernel speed-up must not change a diagram or a
     cache decision, and a change to the miter's schedule or to the
     chain's links shows here as a change of diagram sizes, to be
     measured and pinned anew. *)
  let device = Device.Ibm.big96 in
  let n = Device.n_qubits device in
  let b = Benchsuite.Big_cascades.find "T6_b" in
  let controls, target = List.hd b.Benchsuite.Big_cascades.gates in
  let mct = Gate.mct controls target in
  let input = Compiler.Quantum (Circuit.make ~n [ mct ]) in
  let native = ref None in
  let opts =
    {
      (Compiler.default_options ~device) with
      Compiler.verification = Compiler.Skip;
    }
  in
  let capture stage c =
    if stage = Diagnostic.Place then native := Some c;
    c
  in
  let r = Compiler.compile ~inject:capture opts input in
  let native = Option.get !native in
  let block g =
    Route.expand_swaps device
      (Route.route_circuit_swaps device (Circuit.make ~n [ g ]))
  in
  let cnots =
    List.filter (function Gate.Cnot _ -> true | _ -> false) (Circuit.gates native)
  in
  (* The kernel half: the whole-register checks of the chain before it
     followed the lowering steps. *)
  check_pinned "check" t6_prefix_checks
    (((r.Compiler.reference, native)
     :: List.map (fun g -> (Circuit.make ~n [ g ], block g)) cnots)
    @ [ (r.Compiler.unoptimized, r.Compiler.optimized) ]);
  let first_occurrences gates =
    List.filteri
      (fun i g -> not (List.mem g (List.filteri (fun j _ -> j < i) gates)))
      gates
  in
  let cascade = Decompose.mct_to_toffoli ~n ~controls ~target in
  let one g = Circuit.make ~n [ g ] in
  let links =
    List.map
      (fun (a, b) -> Circuit.compact a b)
      (((one mct, Circuit.make ~n cascade)
       :: List.map
            (fun g -> (one g, Circuit.make ~n (Decompose.lower_gate ~n g)))
            (first_occurrences
               (List.filter (fun g -> not (Gate.is_transmon_native g)) cascade)))
      @ List.map (fun g -> (one g, block g)) (first_occurrences cnots)
      @ [ (r.Compiler.unoptimized, r.Compiler.optimized) ])
  in
  check_int "distinct checks" 18 (List.length links);
  check_pinned "link" t6_prefix_links links;
  (* The compiler's traced staged proof runs exactly these links and
     allocates their total. *)
  let trace = Trace.create () in
  let verified =
    Compiler.compile ~trace (Compiler.default_options ~device) input
  in
  check_bool "compiler verdict" true
    (verified.Compiler.verification = Compiler.Verified_staged);
  let verify_span =
    List.find (fun sp -> sp.Trace.name = "verify") (Trace.spans trace)
  in
  let counter k = int_of_float (List.assoc k verify_span.Trace.counters) in
  check_int "compiler checks" (List.length links) (counter "qmdd_checks");
  check_int "compiler allocated"
    (Array.fold_left
       (fun acc (_, _, allocated, _, _, _, _) -> acc + allocated)
       0 t6_prefix_links)
    (counter "qmdd_allocated_nodes")

(* The unique table compares weights on the 1e-10 grid of
   [Cx.round_key], not by representative.  Ry(θ) with tan(θ/2) = t
   normalizes to the node [1, -t; t, 1].  At t = 0.01 the value table's
   tolerance is 2e-11, so t and t + 3e-11 are two representatives, yet
   they round to one grid point: one node. *)
let test_grid_class () =
  let m = Qmdd.create ~n:1 in
  let ry t = Qmdd.gate m (Gate.Ry (2. *. atan t, 0)) in
  let a = ry 0.01 and b = ry (0.01 +. 3e-11) in
  check_int "one unique node" 1 (Qmdd.stats m).Qmdd.unique_nodes;
  check_bool "equal" true (Qmdd.equal a b)

(* A memoized product is only reused while the value table is as it was:
   a representative planted since can change what the product snaps
   to.  Ry(θ) with cos(θ/2) = c carries c on its root edge, and the
   product of the roots of Ry(c = 0.5) and Ry(c = 2z) is z.  With
   r = z - 5e-10 planted first, z snaps to r (tolerance 6e-10 there);
   once r' = z + 2e-10 is planted in z's own bucket, which the scan
   reads first, z snaps to r'. *)
let test_stale_memo () =
  let m = Qmdd.create ~n:1 in
  let ry c = Qmdd.gate m (Gate.Ry (2. *. acos c, 0)) in
  let z = 0.2999999997 in
  ignore (ry (z -. 5e-10));
  let a = ry 0.5 and b = ry (2. *. z) in
  let before = Qmdd.multiply m a b in
  ignore (ry (z +. 2e-10));
  let after = Qmdd.multiply m a b in
  check_bool "the grown table snaps the product elsewhere" false
    (Qmdd.equal before after)

(* ------------------------------------------------------------------ *)
(* Registers wider than an OCaml int                                    *)

let wide_widths = [ 63; 96 ]

let test_wide_process_fidelity () =
  List.iter
    (fun n ->
      let c =
        Circuit.make ~n
          [ Gate.H 0; Gate.Cnot { control = 0; target = n - 1 }; Gate.T (n - 1) ]
      in
      let self = Qmdd.process_fidelity c c in
      check_bool
        (Printf.sprintf "%d qubits: self fidelity %g = 1" n self)
        true
        (abs_float (self -. 1.0) < 1e-9);
      (* |tr T| / 2 = cos(pi/8) on any register width. *)
      let t = Qmdd.process_fidelity (Circuit.make ~n [ Gate.T 5 ]) (Circuit.empty n) in
      check_bool
        (Printf.sprintf "%d qubits: T fidelity %g = cos(pi/8)" n t)
        true
        (abs_float (t -. cos (Float.pi /. 8.0)) < 1e-9))
    wide_widths

let test_wide_amplitude () =
  List.iter
    (fun n ->
      let m = Qmdd.create ~n in
      let from = Array.make n false in
      let set qs = Array.init n (fun q -> List.mem q qs) in
      let flip =
        Circuit.make ~n [ Gate.X 0; Gate.Cnot { control = 0; target = n - 1 } ]
      in
      let state = Qmdd.run_basis m flip ~from in
      let out = set [ 0; n - 1 ] in
      check_bool
        (Printf.sprintf "%d qubits: classical outcome" n)
        true
        (Qmdd.classical_outcome m state ~from = Some out);
      check_bool
        (Printf.sprintf "%d qubits: amplitude of the outcome is 1" n)
        true
        (Cx.approx_equal (Qmdd.amplitude m state ~from out) Cx.one);
      check_bool
        (Printf.sprintf "%d qubits: other amplitudes are 0" n)
        true
        (Cx.is_zero (Qmdd.amplitude m state ~from (set [ 0 ]))
        && Cx.is_zero (Qmdd.amplitude m state ~from (set [ n - 1 ])));
      let bell =
        Qmdd.run_basis m
          (Circuit.make ~n [ Gate.H 0; Gate.Cnot { control = 0; target = n - 1 } ])
          ~from
      in
      let half = Cx.of_float Cx.inv_sqrt2 in
      check_bool
        (Printf.sprintf "%d qubits: Bell amplitudes" n)
        true
        (Cx.approx_equal (Qmdd.amplitude m bell ~from from) half
        && Cx.approx_equal (Qmdd.amplitude m bell ~from out) half))
    wide_widths

let () =
  Alcotest.run "qmdd"
    [
      ( "construction",
        [
          Alcotest.test_case "identity" `Quick test_identity_structure;
          Alcotest.test_case "fig1 cnot" `Quick test_fig1_cnot_qmdd;
          Alcotest.test_case "gates vs dense" `Quick test_gate_qmdds_match_dense;
          Alcotest.test_case "multiply" `Quick test_multiply_matches_dense;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "canonical weight stability" `Quick
            test_canonical_weight_stability;
          Alcotest.test_case "of_circuit/entry" `Quick test_of_circuit_and_entry;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "phase handling" `Quick test_equivalence_phase;
          Alcotest.test_case "inequivalence" `Quick test_inequivalence;
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "fig3 swap identity" `Quick test_swap_chain_identity;
        ] );
      ( "alignment",
        [
          QCheck_alcotest.to_alcotest prop_common_subsequence;
          Alcotest.test_case "common subsequence edges" `Quick
            test_common_subsequence_edges;
          QCheck_alcotest.to_alcotest prop_schedule_matches_dense;
          Alcotest.test_case "fused block flush" `Quick test_fused_block_flush;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "adjoint/trace" `Quick test_adjoint_and_trace;
          Alcotest.test_case "process fidelity" `Quick test_process_fidelity;
          QCheck_alcotest.to_alcotest prop_trace_matches_dense;
        ] );
      ( "basis simulation",
        [
          Alcotest.test_case "amplitudes" `Quick test_basis_simulation;
          Alcotest.test_case "classical outcome" `Quick test_classical_outcome;
          Alcotest.test_case "96-qubit functional check" `Quick
            test_wide_functional_run;
          QCheck_alcotest.to_alcotest prop_basis_run_matches_dense;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_qmdd_matches_dense;
          QCheck_alcotest.to_alcotest prop_equivalent_reflexive_shuffled;
          QCheck_alcotest.to_alcotest prop_inverse_equivalence;
          QCheck_alcotest.to_alcotest prop_gate_qmdd_node_linear;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "identity operands" `Quick test_identity_operands;
          Alcotest.test_case "gate memo" `Quick test_gate_memo;
          Alcotest.test_case "T6_b prefix staged proof pinned" `Quick
            test_t6_prefix_staged_proof;
          Alcotest.test_case "grid class" `Quick test_grid_class;
          Alcotest.test_case "stale memo" `Quick test_stale_memo;
        ] );
      ( "wide registers",
        [
          Alcotest.test_case "process fidelity" `Quick
            test_wide_process_fidelity;
          Alcotest.test_case "amplitude" `Quick test_wide_amplitude;
        ] );
    ]
