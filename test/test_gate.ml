open Mathkit

let check_bool = Alcotest.(check bool)

let all_sample_gates =
  [
    Gate.X 0;
    Gate.Y 1;
    Gate.Z 2;
    Gate.H 0;
    Gate.S 1;
    Gate.Sdg 2;
    Gate.T 0;
    Gate.Tdg 1;
    Gate.Cnot { control = 0; target = 2 };
    Gate.Cnot { control = 2; target = 0 };
    Gate.Cz (1, 2);
    Gate.Swap (0, 2);
    Gate.Toffoli { c1 = 0; c2 = 2; target = 1 };
    Gate.Mct { controls = [ 0; 1; 2 ]; target = 3 };
  ]

let test_base_matrices_unitary () =
  List.iter
    (fun g ->
      check_bool
        (Printf.sprintf "%s base matrix unitary" (Gate.to_string g))
        true
        (Matrix.is_unitary (Gate.base_matrix g)))
    all_sample_gates

let test_embedded_matrices_unitary () =
  List.iter
    (fun g ->
      check_bool
        (Printf.sprintf "%s embedded unitary" (Gate.to_string g))
        true
        (Matrix.is_unitary (Gate.embedded_matrix ~n:4 g)))
    all_sample_gates

let test_table1_entries () =
  (* Spot checks against Table 1 of the paper. *)
  let t = Gate.base_matrix (Gate.T 0) in
  check_bool "T phase = exp(i pi/4)" true
    (Cx.approx_equal (Matrix.get t 1 1) (Cx.omega 1));
  let cnot = Gate.base_matrix (Gate.Cnot { control = 0; target = 1 }) in
  check_bool "CNOT |10> -> |11>" true (Cx.is_one (Matrix.get cnot 3 2));
  check_bool "CNOT |11> -> |10>" true (Cx.is_one (Matrix.get cnot 2 3));
  check_bool "CNOT |00> -> |00>" true (Cx.is_one (Matrix.get cnot 0 0));
  let cz = Gate.base_matrix (Gate.Cz (0, 1)) in
  check_bool "CZ sign on |11>" true
    (Cx.approx_equal (Matrix.get cz 3 3) (Cx.of_float (-1.0)));
  let toffoli = Gate.base_matrix (Gate.Toffoli { c1 = 0; c2 = 1; target = 2 }) in
  check_bool "Toffoli |110> -> |111>" true (Cx.is_one (Matrix.get toffoli 7 6));
  check_bool "Toffoli fixes |100>" true (Cx.is_one (Matrix.get toffoli 4 4));
  let swap = Gate.base_matrix (Gate.Swap (0, 1)) in
  check_bool "SWAP |01> -> |10>" true (Cx.is_one (Matrix.get swap 2 1))

let test_adjoint_inverse () =
  List.iter
    (fun g ->
      let u = Gate.embedded_matrix ~n:4 g in
      let udg = Gate.embedded_matrix ~n:4 (Gate.adjoint g) in
      check_bool
        (Printf.sprintf "%s adjoint inverts" (Gate.to_string g))
        true
        (Matrix.is_identity (Matrix.mul udg u)))
    all_sample_gates

let test_adjoint_pairs () =
  check_bool "adjoint S = Sdg" true (Gate.adjoint (Gate.S 3) = Gate.Sdg 3);
  check_bool "adjoint Tdg = T" true (Gate.adjoint (Gate.Tdg 0) = Gate.T 0);
  check_bool "H self inverse" true (Gate.is_self_inverse (Gate.H 1));
  check_bool "T not self inverse" false (Gate.is_self_inverse (Gate.T 1))

let test_mct_constructor () =
  check_bool "0 controls = X" true (Gate.mct [] 3 = Gate.X 3);
  check_bool "1 control = CNOT" true
    (Gate.mct [ 1 ] 3 = Gate.Cnot { control = 1; target = 3 });
  check_bool "2 controls = Toffoli" true
    (Gate.mct [ 2; 1 ] 3 = Gate.Toffoli { c1 = 1; c2 = 2; target = 3 });
  check_bool "3 controls sorted" true
    (Gate.mct [ 2; 0; 1 ] 3 = Gate.Mct { controls = [ 0; 1; 2 ]; target = 3 });
  Alcotest.check_raises "target in controls"
    (Invalid_argument "Gate.mct: target is a control") (fun () ->
      ignore (Gate.mct [ 0; 3 ] 3));
  Alcotest.check_raises "repeated control"
    (Invalid_argument "Gate.mct: repeated control") (fun () ->
      ignore (Gate.mct [ 1; 1; 2 ] 3))

let test_support () =
  check_bool "support H" true (Gate.support (Gate.H 5) = [ 5 ]);
  check_bool "support CNOT sorted" true
    (Gate.support (Gate.Cnot { control = 7; target = 2 }) = [ 2; 7 ]);
  check_bool "support MCT" true
    (Gate.support (Gate.Mct { controls = [ 4; 1 ]; target = 0 }) = [ 0; 1; 4 ]);
  check_bool "max_qubit" true
    (Gate.max_qubit (Gate.Toffoli { c1 = 9; c2 = 3; target = 6 }) = 9)

(* [support] and [max_qubit] as they were written before they stopped
   sorting and allocating. *)
let sorted_support = function
  | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q
  | Gate.T q | Gate.Tdg q
  | Gate.Rx (_, q) | Gate.Ry (_, q) | Gate.Rz (_, q) | Gate.Phase (_, q) ->
    [ q ]
  | Gate.Cnot { control; target } ->
    List.sort_uniq Int.compare [ control; target ]
  | Gate.Cz (a, b) | Gate.Swap (a, b) -> List.sort_uniq Int.compare [ a; b ]
  | Gate.Toffoli { c1; c2; target } ->
    List.sort_uniq Int.compare [ c1; c2; target ]
  | Gate.Mct { controls; target } ->
    List.sort_uniq Int.compare (target :: controls)

let folded_max_qubit g = List.fold_left max 0 (sorted_support g)

let test_support_matches_sorting () =
  (* Every constructor, both operand orders, equal operands (which only
     raw constructors can build) and an Mct past 63 qubits. *)
  let wide = Gate.Mct { controls = List.init 70 (fun i -> 99 - i); target = 5 } in
  let gates =
    [
      Gate.X 3; Gate.Y 0; Gate.Z 7; Gate.H 2; Gate.S 4; Gate.Sdg 1; Gate.T 9;
      Gate.Tdg 6; Gate.Rx (0.5, 2); Gate.Ry (-1.0, 8); Gate.Rz (3.0, 0);
      Gate.Phase (0.25, 5);
      Gate.Cnot { control = 1; target = 6 }; Gate.Cnot { control = 6; target = 1 };
      Gate.Cnot { control = 4; target = 4 };
      Gate.Cz (0, 3); Gate.Cz (3, 0); Gate.Cz (2, 2);
      Gate.Swap (5, 9); Gate.Swap (9, 5); Gate.Swap (7, 7);
      Gate.Toffoli { c1 = 8; c2 = 2; target = 5 };
      Gate.Toffoli { c1 = 3; c2 = 3; target = 1 };
      Gate.Mct { controls = [ 4; 0; 6 ]; target = 2 }; wide;
    ]
  in
  List.iter
    (fun g ->
      let name = Gate.to_string g in
      check_bool (name ^ " support") true (Gate.support g = sorted_support g);
      Alcotest.(check int) (name ^ " max_qubit") (folded_max_qubit g)
        (Gate.max_qubit g))
    gates;
  (* Validation reads every gate through [max_qubit]: building a
     circuit allocates its record and nothing per gate. *)
  let many = List.concat (List.init 500 (fun _ -> gates)) in
  let before = Gc.minor_words () in
  let c = Circuit.make ~n:100 many in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity c);
  check_bool (Printf.sprintf "validation allocates %.0f words" words) true
    (words < 64.0)

(* The commutation test over support lists and [Optimize.cancels] as
   they were before they stopped allocating, kept as the reference the
   current definitions must agree with on every pair. *)
module Old = struct
  let is_diagonal = function
    | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Rz _
    | Gate.Phase _ | Gate.Cz _ ->
      true
    | Gate.X _ | Gate.Y _ | Gate.H _ | Gate.Rx _ | Gate.Ry _ | Gate.Cnot _
    | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
      false

  let not_family = function
    | Gate.X q -> Some ([], q)
    | Gate.Cnot { control; target } -> Some ([ control ], target)
    | Gate.Toffoli { c1; c2; target } -> Some ([ c1; c2 ], target)
    | Gate.Mct { controls; target } -> Some (controls, target)
    | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _ | Gate.T _
    | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _
    | Gate.Cz _ | Gate.Swap _ ->
      None

  let commutes_with_support sg g sh h =
    let passes_not g sg h =
      match (g, not_family h) with
      | _, None -> false
      | Gate.Rx (_, q), Some (_, t) -> q = t
      | _, Some (_, t) -> is_diagonal g && not (List.mem t sg)
    in
    let axis = function
      | Gate.X _ | Gate.Rx _ -> 1
      | Gate.Y _ | Gate.Ry _ -> 2
      | _ -> 0
    in
    List.for_all (fun q -> not (List.mem q sh)) sg
    || Gate.equal g h
    || (is_diagonal g && is_diagonal h)
    || passes_not g sg h
    || passes_not h sh g
    || (axis g > 0 && axis g = axis h)
    ||
    match (not_family g, not_family h) with
    | Some (cg, tg), Some (ch, th) -> not (List.mem tg ch || List.mem th cg)
    | (Some _ | None), (Some _ | None) -> false

  let same_pair (a, b) (c, d) = (a = c && b = d) || (a = d && b = c)

  let cancels g h =
    match (Gate.phase_angle g, Gate.phase_angle h) with
    | Some (a, qa), Some (b, qb) -> qa = qb && Gate.phase_gate (a +. b) qa = None
    | (Some _ | None), (Some _ | None) -> (
      match (g, h) with
      | Gate.X a, Gate.X b | Gate.Y a, Gate.Y b | Gate.H a, Gate.H b -> a = b
      | Gate.Rx (ta, a), Gate.Rx (tb, b)
      | Gate.Ry (ta, a), Gate.Ry (tb, b)
      | Gate.Rz (ta, a), Gate.Rz (tb, b) ->
        a = b && abs_float (ta +. tb) < 1e-12
      | Gate.Cnot x, Gate.Cnot y -> x.control = y.control && x.target = y.target
      | Gate.Cz (a1, b1), Gate.Cz (a2, b2)
      | Gate.Swap (a1, b1), Gate.Swap (a2, b2) ->
        same_pair (a1, b1) (a2, b2)
      | Gate.Toffoli a, Gate.Toffoli b ->
        a.target = b.target && same_pair (a.c1, a.c2) (b.c1, b.c2)
      | Gate.Mct a, Gate.Mct b ->
        a.target = b.target
        && List.sort Int.compare a.controls = List.sort Int.compare b.controls
      | _, _ -> false)
end

(* Every gate over at most 4 qubits: each constructor on every operand
   tuple (both orders of symmetric pairs, every control order of an
   [Mct]), and the rotations at angles that cancel, fold to a named
   phase gate, vanish or do neither. *)
let gate_pool =
  let qs = [ 0; 1; 2; 3 ] in
  let pi = Float.pi in
  let angles =
    [ 0.0; 1e-13; 0.3; -0.3; pi /. 4.0; -.pi /. 4.0; pi /. 2.0; -.pi /. 2.0;
      pi; -.pi; 2.0 *. pi; 7.0 *. pi /. 4.0 ]
  in
  let singles =
    [ (fun q -> Gate.X q); (fun q -> Gate.Y q); (fun q -> Gate.Z q);
      (fun q -> Gate.H q); (fun q -> Gate.S q); (fun q -> Gate.Sdg q);
      (fun q -> Gate.T q); (fun q -> Gate.Tdg q) ]
  in
  let rotations =
    [ (fun t q -> Gate.Rx (t, q)); (fun t q -> Gate.Ry (t, q));
      (fun t q -> Gate.Rz (t, q)); (fun t q -> Gate.Phase (t, q)) ]
  in
  let pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) qs)
      qs
  in
  let others a b = List.filter (fun q -> q <> a && q <> b) qs in
  List.concat
    [
      List.concat_map (fun f -> List.map f qs) singles;
      List.concat_map
        (fun f -> List.concat_map (fun t -> List.map (f t) qs) angles)
        rotations;
      List.concat_map
        (fun (a, b) ->
          [ Gate.Cnot { control = a; target = b }; Gate.Cz (a, b);
            Gate.Swap (a, b) ])
        pairs;
      List.concat_map
        (fun (a, b) ->
          List.map
            (fun t -> Gate.Toffoli { c1 = a; c2 = b; target = t })
            (others a b))
        pairs;
      List.concat_map
        (fun t ->
          match List.filter (( <> ) t) qs with
          | [ a; b; c ] ->
            [ Gate.Mct { controls = [ a; b; c ]; target = t };
              Gate.Mct { controls = [ c; a; b ]; target = t } ]
          | _ -> [])
        qs;
    ]

let test_commutes_and_cancels_match_old () =
  let pool = List.map (fun g -> (g, Gate.support g)) gate_pool in
  let pairs = ref 0 in
  List.iter
    (fun (g, sg) ->
      List.iter
        (fun (h, sh) ->
          incr pairs;
          let name = Gate.to_string g ^ " / " ^ Gate.to_string h in
          if Gate.commutes g h <> Old.commutes_with_support sg g sh h then
            Alcotest.failf "commutes differs on %s" name;
          if Optimize.cancels g h <> Old.cancels g h then
            Alcotest.failf "cancels differs on %s" name)
        pool)
    pool;
  Alcotest.(check int) "every pair of the pool" 85_264 !pairs;
  (* The commutation test reads the constructors only: over all the
     pairs it allocates nothing (the loop itself is allowed a few
     words).  Over support lists it built two per call. *)
  let pool = Array.of_list gate_pool in
  let before = Gc.minor_words () in
  for a = 0 to Array.length pool - 1 do
    for b = 0 to Array.length pool - 1 do
      ignore (Sys.opaque_identity (Gate.commutes pool.(a) pool.(b)))
    done
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "commutes allocated %.0f words" words) true
    (words < 64.0);
  (* So do the cancellation test's named phase pairs, the pairs the
     cancellation scan meets on Clifford+T circuits. *)
  let named =
    Array.of_list
      (List.filter
         (function
           | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ -> true
           | _ -> false)
         gate_pool)
  in
  let before = Gc.minor_words () in
  for a = 0 to Array.length named - 1 do
    for b = 0 to Array.length named - 1 do
      ignore (Sys.opaque_identity (Optimize.cancels named.(a) named.(b)))
    done
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "cancels allocated %.0f words" words) true
    (words < 64.0)

(* [Gate.kind] numbers the constructors in declaration order, which
   the identity-window keys have always written as each gate's first
   byte. *)
let test_kind () =
  let one_of_each =
    [ Gate.X 0; Gate.Y 0; Gate.Z 0; Gate.H 0; Gate.S 0; Gate.Sdg 0; Gate.T 0;
      Gate.Tdg 0; Gate.Rx (0.1, 0); Gate.Ry (0.1, 0); Gate.Rz (0.1, 0);
      Gate.Phase (0.1, 0); Gate.Cnot { control = 0; target = 1 }; Gate.Cz (0, 1);
      Gate.Swap (0, 1); Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
      Gate.Mct { controls = [ 0; 1; 2 ]; target = 3 } ]
  in
  check_bool "declaration order" true
    (List.map Gate.kind one_of_each = List.init Gate.kind_count Fun.id);
  check_bool "operands do not matter" true
    (List.for_all
       (fun g -> Gate.kind g = Gate.kind (Gate.rename (fun q -> q + 5) g))
       gate_pool)

let test_rename () =
  let g = Gate.Cnot { control = 0; target = 1 } in
  check_bool "rename shifts" true
    (Gate.rename (fun q -> q + 3) g = Gate.Cnot { control = 3; target = 4 });
  Alcotest.check_raises "merging rename rejected"
    (Invalid_argument "Gate.rename: renaming merges qubits") (fun () ->
      ignore (Gate.rename (fun _ -> 0) g))

let test_classification () =
  check_bool "T is t-like" true (Gate.is_t_like (Gate.T 0));
  check_bool "Tdg is t-like" true (Gate.is_t_like (Gate.Tdg 0));
  check_bool "S not t-like" false (Gate.is_t_like (Gate.S 0));
  check_bool "CNOT native" true
    (Gate.is_transmon_native (Gate.Cnot { control = 0; target = 1 }));
  check_bool "Toffoli not native" false
    (Gate.is_transmon_native (Gate.Toffoli { c1 = 0; c2 = 1; target = 2 }));
  check_bool "SWAP not native" false (Gate.is_transmon_native (Gate.Swap (0, 1)))

let test_mct_semantics () =
  (* The generalized Toffoli flips the target exactly on the all-ones
     control pattern. *)
  let g = Gate.Mct { controls = [ 0; 1; 2 ]; target = 3 } in
  let m = Gate.embedded_matrix ~n:4 g in
  check_bool "flips |1110> -> |1111>" true (Cx.is_one (Matrix.get m 15 14));
  check_bool "fixes |0111>" true (Cx.is_one (Matrix.get m 7 7));
  check_bool "permutation matrix" true (Matrix.is_unitary m)

let prop_embedded_consistent_with_apply_basis =
  QCheck2.Test.make ~name:"embedded matrix column = apply_basis" ~count:100
    (Testutil.gen_gate 4)
    (fun g ->
      let m = Gate.embedded_matrix ~n:4 g in
      List.for_all
        (fun col ->
          let sparse = Gate.apply_basis ~n:4 g col in
          List.for_all
            (fun (amp, row) ->
              Cx.approx_equal amp (Matrix.get m row col))
            sparse)
        (List.init 16 (fun i -> i)))

let prop_adjoint_involutive =
  QCheck2.Test.make ~name:"adjoint involutive" ~count:200 (Testutil.gen_gate 5)
    (fun g -> Gate.adjoint (Gate.adjoint g) = g)

let () =
  Alcotest.run "gate"
    [
      ( "matrices",
        [
          Alcotest.test_case "base unitary" `Quick test_base_matrices_unitary;
          Alcotest.test_case "embedded unitary" `Quick
            test_embedded_matrices_unitary;
          Alcotest.test_case "table 1 entries" `Quick test_table1_entries;
          Alcotest.test_case "mct semantics" `Quick test_mct_semantics;
          QCheck_alcotest.to_alcotest prop_embedded_consistent_with_apply_basis;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "adjoint inverse" `Quick test_adjoint_inverse;
          Alcotest.test_case "adjoint pairs" `Quick test_adjoint_pairs;
          Alcotest.test_case "mct constructor" `Quick test_mct_constructor;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "support and max_qubit match sorting" `Quick
            test_support_matches_sorting;
          Alcotest.test_case "commutes and cancels match the old tests" `Quick
            test_commutes_and_cancels_match_old;
          Alcotest.test_case "kind" `Quick test_kind;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "classification" `Quick test_classification;
          QCheck_alcotest.to_alcotest prop_adjoint_involutive;
        ] );
    ]
