(* Tests for the rewrite-template peephole engine: every template gets a
   fire case (exact before/after pin plus unitary check) and a near-miss
   the side condition must block; the three engine passes get pinned
   merge counts; the rotation-fold metamorphic tests sweep every pair of
   the fuzzer's edge angles; the native template matches are checked
   against the pattern interpreter they replaced; and T-count deltas on
   the classic benchmarks are pinned so a regression in phase merging
   is loud. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pi = 4.0 *. atan 1.0

let circ ?(n = 4) gates = Circuit.make ~n gates

let sel name =
  match Rewrite.parse_selection name with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse_selection %S: %s" name e

(* Apply exactly one template (no engine passes) and return the gates. *)
let fire_one ?device name gates =
  let c = circ gates in
  let out, applied = Rewrite.apply_templates ?device ~selection:(sel name) c in
  (Circuit.gates out, applied)

(* --- registry --- *)

let template_names = List.map (fun r -> r.Rewrite.name) Rewrite.rules

let test_registry_complete () =
  check_int "thirteen templates" 13 (List.length Rewrite.rules);
  check_bool "names unique" true
    (List.length (List.sort_uniq compare template_names)
    = List.length template_names);
  List.iter
    (fun r ->
      check_bool (r.Rewrite.name ^ " findable") true
        (Rewrite.find_rule r.Rewrite.name <> None);
      check_bool (r.Rewrite.name ^ " documented") true
        (r.Rewrite.doc <> "" && r.Rewrite.pattern_doc <> ""
        && r.Rewrite.guard_doc <> ""
        && r.Rewrite.replacement_doc <> ""))
    Rewrite.rules;
  check_bool "engine passes named" true
    (Rewrite.engine_pass_names
    = [ "rotation-merge"; "phase-merge"; "clifford-normalize" ]);
  check_bool "all_names = templates @ passes" true
    (Rewrite.all_names = template_names @ Rewrite.engine_pass_names);
  check_bool "unknown rule absent" true (Rewrite.find_rule "bogus" = None)

let test_selection_parsing () =
  check_bool "empty string is default" true
    (Rewrite.selection_to_string (sel "")
    = Rewrite.selection_to_string Rewrite.default_selection);
  check_bool "none is empty" true
    (Rewrite.selection_to_string (sel "none") = "none");
  check_bool "default not empty" true
    (Rewrite.selection_to_string Rewrite.default_selection <> "none");
  check_bool "default is all" true
    (Rewrite.selection_to_string (sel "default")
    = Rewrite.selection_to_string (sel "all"));
  List.iter
    (fun n -> check_bool (n ^ " on under all") true (Rewrite.enabled (sel "all") n))
    Rewrite.all_names;
  let minus = sel "-phase-merge" in
  check_bool "removal starts from default" true
    (Rewrite.enabled minus "rotation-merge"
    && not (Rewrite.enabled minus "phase-merge"));
  let only = sel "rotation-merge" in
  check_bool "bare name starts empty" true
    (Rewrite.enabled only "rotation-merge"
    && not (Rewrite.enabled only "h-x-h-to-z"));
  let reset = sel "none,h-x-h-to-z" in
  check_bool "none resets" true
    (Rewrite.enabled reset "h-x-h-to-z"
    && not (Rewrite.enabled reset "h-z-h-to-x"));
  check_bool "unknown name rejected" true
    (match Rewrite.parse_selection "bogus" with Error _ -> true | Ok _ -> false);
  check_bool "unknown removal rejected" true
    (match Rewrite.parse_selection "-bogus" with Error _ -> true | Ok _ -> false);
  (* Canonical rendering round-trips. *)
  List.iter
    (fun s ->
      let rendered = Rewrite.selection_to_string (sel s) in
      check_bool (s ^ " round-trips") true
        (Rewrite.selection_to_string (sel rendered) = rendered))
    [ ""; "none"; "all"; "-phase-merge"; "rotation-merge,h-x-h-to-z" ];
  check_bool "empty renders none" true
    (Rewrite.selection_to_string Rewrite.empty_selection = "none")

(* --- per-template fire + near-miss --- *)

(* (rule, input, expected output).  Each expected replacement is also
   verified against the dense oracle, so a wrong pin cannot hide. *)
let fire_cases =
  [
    ( "cnot-reversal",
      [ Gate.H 0; Gate.H 1; Gate.Cnot { control = 0; target = 1 };
        Gate.H 0; Gate.H 1 ],
      [ Gate.Cnot { control = 1; target = 0 } ] );
    ( "cnot-reversal",
      (* H order swapped relative to the CNOT operands. *)
      [ Gate.H 1; Gate.H 0; Gate.Cnot { control = 0; target = 1 };
        Gate.H 1; Gate.H 0 ],
      [ Gate.Cnot { control = 1; target = 0 } ] );
    ("h-x-h-to-z", [ Gate.H 0; Gate.X 0; Gate.H 0 ], [ Gate.Z 0 ]);
    ("h-z-h-to-x", [ Gate.H 2; Gate.Z 2; Gate.H 2 ], [ Gate.X 2 ]);
    ( "h-cz-h-to-cnot",
      [ Gate.H 1; Gate.Cz (0, 1); Gate.H 1 ],
      [ Gate.Cnot { control = 0; target = 1 } ] );
    ( "h-cz-h-to-cnot",
      (* CZ is symmetric: operand order must not matter. *)
      [ Gate.H 1; Gate.Cz (1, 0); Gate.H 1 ],
      [ Gate.Cnot { control = 0; target = 1 } ] );
    ( "x-rz-x-flip",
      [ Gate.X 0; Gate.Rz (0.7, 0); Gate.X 0 ],
      [ Gate.Rz (-0.7, 0) ] );
    ( "x-ry-x-flip",
      [ Gate.X 1; Gate.Ry (1.1, 1); Gate.X 1 ],
      [ Gate.Ry (-1.1, 1) ] );
    ( "z-rx-z-flip",
      [ Gate.Z 0; Gate.Rx (0.3, 0); Gate.Z 0 ],
      [ Gate.Rx (-0.3, 0) ] );
    ( "z-ry-z-flip",
      [ Gate.Z 3; Gate.Ry (0.4, 3); Gate.Z 3 ],
      [ Gate.Ry (-0.4, 3) ] );
    ( "h-rx-h-to-rz",
      [ Gate.H 0; Gate.Rx (0.9, 0); Gate.H 0 ],
      [ Gate.Rz (0.9, 0) ] );
    ( "h-rz-h-to-rx",
      [ Gate.H 0; Gate.Rz (0.6, 0); Gate.H 0 ],
      [ Gate.Rx (0.6, 0) ] );
    ("sdg-x-s-to-y", [ Gate.Sdg 0; Gate.X 0; Gate.S 0 ], [ Gate.Y 0 ]);
    ("s-y-sdg-to-x", [ Gate.S 0; Gate.Y 0; Gate.Sdg 0 ], [ Gate.X 0 ]);
    ( "cnot-triple-to-swap",
      [ Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 0 };
        Gate.Cnot { control = 0; target = 1 } ],
      [ Gate.Swap (0, 1) ] );
  ]

(* (rule, input that must survive untouched).  Wire mismatches, wrong
   conjugation order (S X Sdg = -Y, not Y — only exact identities may
   fire), and patterns that almost line up. *)
let near_miss_cases =
  [
    ( "cnot-reversal",
      [ Gate.H 0; Gate.H 2; Gate.Cnot { control = 0; target = 1 };
        Gate.H 0; Gate.H 2 ] );
    ("h-x-h-to-z", [ Gate.H 0; Gate.X 1; Gate.H 0 ]);
    ("h-z-h-to-x", [ Gate.H 0; Gate.Z 0; Gate.H 1 ]);
    ("h-cz-h-to-cnot", [ Gate.H 0; Gate.Cz (1, 2); Gate.H 0 ]);
    ("x-rz-x-flip", [ Gate.X 0; Gate.Rz (0.7, 1); Gate.X 0 ]);
    ("x-ry-x-flip", [ Gate.X 0; Gate.Ry (1.1, 0); Gate.X 1 ]);
    ("z-rx-z-flip", [ Gate.Z 0; Gate.Rx (0.3, 1); Gate.Z 0 ]);
    ("z-ry-z-flip", [ Gate.Z 1; Gate.Ry (0.4, 0); Gate.Z 0 ]);
    ("h-rx-h-to-rz", [ Gate.H 0; Gate.Rx (0.9, 1); Gate.H 0 ]);
    ("h-rz-h-to-rx", [ Gate.H 1; Gate.Rz (0.6, 0); Gate.H 0 ]);
    ("sdg-x-s-to-y", [ Gate.S 0; Gate.X 0; Gate.Sdg 0 ]);
    ("s-y-sdg-to-x", [ Gate.Sdg 0; Gate.Y 0; Gate.S 0 ]);
    ( "cnot-triple-to-swap",
      [ Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 0 };
        Gate.Cnot { control = 1; target = 0 } ] );
  ]

let test_templates_fire () =
  List.iter
    (fun (name, input, expected) ->
      let got, applied = fire_one name input in
      check_bool (name ^ " pinned output") true (got = expected);
      check_bool (name ^ " reported") true (List.mem_assoc name applied);
      Testutil.assert_unitary_equal (name ^ " exact") (circ input)
        (circ expected))
    fire_cases

let test_templates_near_miss () =
  List.iter
    (fun (name, input) ->
      let got, applied = fire_one name input in
      check_bool (name ^ " near-miss untouched") true (got = input);
      check_bool (name ^ " near-miss silent") true (applied = []))
    near_miss_cases;
  (* The phase-only conjugations must not fire under ANY template: the
     full registry has to leave -Y and -X alone. *)
  List.iter
    (fun input ->
      let out, _ = Rewrite.apply_templates (circ input) in
      check_bool "phase-off conjugation untouched" true
        (Circuit.gates out = input))
    [ [ Gate.S 0; Gate.X 0; Gate.Sdg 0 ]; [ Gate.Sdg 0; Gate.Y 0; Gate.S 0 ] ]

(* Gates of every kind on qubits 0 to 2, operands in both orders. *)
let head_pool =
  List.concat_map
    (fun q ->
      [ Gate.X q; Gate.Y q; Gate.Z q; Gate.H q; Gate.S q; Gate.Sdg q; Gate.T q;
        Gate.Tdg q; Gate.Rx (0.7, q); Gate.Ry (0.7, q); Gate.Rz (0.7, q);
        Gate.Phase (0.7, q) ])
    [ 0; 1; 2 ]
  @ List.concat_map
      (fun (a, b) ->
        [ Gate.Cnot { control = a; target = b }; Gate.Cz (a, b); Gate.Swap (a, b) ])
      [ (0, 1); (1, 0); (1, 2); (2, 1) ]
  @ [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
      Gate.Mct { controls = [ 0; 1; 2 ]; target = 3 } ]

(* A rule's stated head is the only kind its pattern can start with:
   each fire case starts with it, and on every list of the pool whose
   first gate is of another kind [rewrite] is [None], with or without a
   device.  The pool puts each pool gate before the rest of every fire
   and near-miss case, and before every pool gate and pair of gates
   that starts a fire case. *)
let test_rule_heads () =
  List.iter
    (fun (name, input, _) ->
      match Rewrite.find_rule name with
      | None -> Alcotest.failf "%s: not a rule" name
      | Some r ->
        check_bool (name ^ " fire case starts with its head") true
          (Gate.kind (List.hd input) = r.Rewrite.head))
    fire_cases;
  let tails =
    List.map (fun (_, input, _) -> List.tl input) fire_cases
    @ List.map (fun (_, input) -> List.tl input) near_miss_cases
    @ List.map (fun g -> [ g ]) head_pool
    @ List.concat_map
        (fun (_, input, _) ->
          match input with _ :: a :: b :: _ -> [ [ a; b ]; [ a ] ] | _ -> [])
        fire_cases
  in
  let both_ways = Device.make ~name:"both" ~n_qubits:4
      [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 3); (3, 2) ]
  in
  let checked = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun g ->
          if Gate.kind g <> r.Rewrite.head then
            List.iter
              (fun tail ->
                List.iter
                  (fun device ->
                    incr checked;
                    if r.Rewrite.rewrite ~device (g :: tail) <> None then
                      Alcotest.failf "%s fired on a list starting %s" r.Rewrite.name
                        (Gate.to_string g))
                  [ None; Some both_ways ])
              tails)
        head_pool)
    Rewrite.rules;
  check_bool (Printf.sprintf "%d lists checked" !checked) true (!checked > 50_000)

let test_device_guards () =
  let one_way = Device.make ~name:"one-way" ~n_qubits:2 [ (0, 1) ] in
  let both = Device.make ~name:"both" ~n_qubits:2 [ (0, 1); (1, 0) ] in
  let reversal =
    [ Gate.H 0; Gate.H 1; Gate.Cnot { control = 0; target = 1 };
      Gate.H 0; Gate.H 1 ]
  in
  (* Reversing 0->1 emits CNOT 1->0, which one-way forbids. *)
  let blocked, _ = fire_one ~device:one_way "cnot-reversal" reversal in
  check_bool "reversal blocked on directed device" true (blocked = reversal);
  let ok, _ = fire_one ~device:both "cnot-reversal" reversal in
  check_int "reversal fires when legal" 1 (List.length ok);
  let cz = [ Gate.H 1; Gate.Cz (0, 1); Gate.H 1 ] in
  let backward = Device.make ~name:"backward" ~n_qubits:2 [ (1, 0) ] in
  let blocked, _ = fire_one ~device:backward "h-cz-h-to-cnot" cz in
  check_bool "CZ rewrite blocked on directed device" true (blocked = cz);
  (* SWAP introduction is only for unmapped circuits. *)
  let triple =
    [ Gate.Cnot { control = 0; target = 1 };
      Gate.Cnot { control = 1; target = 0 };
      Gate.Cnot { control = 0; target = 1 } ]
  in
  let blocked, _ = fire_one ~device:both "cnot-triple-to-swap" triple in
  check_bool "swap rewrite blocked once mapped" true (blocked = triple)

(* --- engine pass: rotation merging --- *)

let test_rotation_merge () =
  let run gates = Rewrite.merge_rotations (circ gates) in
  let c, n = run [ Gate.Rz (0.5, 0); Gate.Rz (0.25, 0) ] in
  check_int "adjacent Rz folds" 1 (Circuit.gate_count c);
  check_int "one gate eliminated" 1 n;
  Testutil.assert_unitary_equal "fold exact"
    (circ [ Gate.Rz (0.5, 0); Gate.Rz (0.25, 0) ]) c;
  (* Rz slides through the CNOT control, Rx through the target. *)
  let through_control =
    [ Gate.Rz (0.5, 0); Gate.Cnot { control = 0; target = 1 };
      Gate.Rz (0.25, 0) ]
  in
  let c, n = run through_control in
  check_int "Rz through control" 2 (Circuit.gate_count c);
  check_int "Rz through control eliminated" 1 n;
  Testutil.assert_unitary_equal "control exact" (circ through_control) c;
  let through_target =
    [ Gate.Rx (0.5, 1); Gate.Cnot { control = 0; target = 1 };
      Gate.Rx (0.25, 1) ]
  in
  let c, _ = run through_target in
  check_int "Rx through target" 2 (Circuit.gate_count c);
  Testutil.assert_unitary_equal "target exact" (circ through_target) c;
  let through_y = [ Gate.Ry (0.2, 0); Gate.Y 0; Gate.Ry (0.3, 0) ] in
  let c, _ = run through_y in
  check_int "Ry through Y" 2 (Circuit.gate_count c);
  Testutil.assert_unitary_equal "Ry exact" (circ through_y) c;
  (* Deletion only at multiples of 4 pi: Rz(2 pi) = -I is NOT identity. *)
  let c, n = run [ Gate.Rz (2.0 *. pi, 0); Gate.Rz (2.0 *. pi, 0) ] in
  check_int "4 pi deleted" 0 (Circuit.gate_count c);
  check_int "both gates eliminated" 2 n;
  let two_pi = [ Gate.Rz (pi, 0); Gate.Rz (pi, 0) ] in
  let c, _ = run two_pi in
  check_int "2 pi kept (global phase matters)" 1 (Circuit.gate_count c);
  Testutil.assert_unitary_equal "2 pi exact" (circ two_pi) c;
  (* H ends the run. *)
  let blocked = [ Gate.Rz (0.5, 0); Gate.H 0; Gate.Rz (0.25, 0) ] in
  let c, n = run blocked in
  check_int "H blocks" 0 n;
  check_bool "blocked circuit untouched" true (Circuit.gates c = blocked);
  (* Rz must NOT slide through the CNOT target. *)
  let target_block =
    [ Gate.Rz (0.5, 1); Gate.Cnot { control = 0; target = 1 };
      Gate.Rz (0.25, 1) ]
  in
  let _, n = run target_block in
  check_int "Rz blocked at target" 0 n

(* --- engine pass: phase-polynomial merging --- *)

let test_phase_merge () =
  let run gates = Rewrite.merge_phase_polynomial (circ gates) in
  (* The staq motivating example: both Ts act on the same parity term
     once the CNOT pair restores the wire, so they fold into one S. *)
  let ladder =
    [ Gate.T 1; Gate.Cnot { control = 0; target = 1 };
      Gate.Cnot { control = 0; target = 1 }; Gate.T 1 ]
  in
  let c, n = run ladder in
  check_int "ladder merged" 3 (Circuit.gate_count c);
  check_int "ladder eliminated one" 1 n;
  check_int "T-count drops to zero" 0 (Circuit.t_count c);
  Testutil.assert_unitary_equal "ladder exact" (circ ladder) c;
  (* Rz through a complemented wire folds with negation — exactly. *)
  let complemented =
    [ Gate.Rz (0.5, 1); Gate.X 1; Gate.Rz (0.25, 1); Gate.X 1 ]
  in
  let c, n = run complemented in
  check_int "complement merged" 3 (Circuit.gate_count c);
  check_int "complement eliminated one" 1 n;
  Testutil.assert_unitary_equal "complement exact" (circ complemented) c;
  (* H destroys the parity: no merge across it. *)
  let _, n = run [ Gate.T 1; Gate.H 1; Gate.T 1 ] in
  check_int "H blocks phase merge" 0 n;
  (* Different parity terms never merge. *)
  let _, n =
    run
      [ Gate.Cnot { control = 0; target = 1 }; Gate.T 1;
        Gate.Cnot { control = 0; target = 1 }; Gate.T 1 ]
  in
  check_int "distinct parities kept" 0 n;
  (* A lone diagonal gate is re-emitted verbatim, not canonicalized:
     Phase(pi/4) must stay Phase, not become T. *)
  let lone = [ Gate.Phase (pi /. 4.0, 0) ] in
  let c, _ = run lone in
  check_bool "single hit re-emits original" true (Circuit.gates c = lone)

(* --- engine pass: Clifford normalization --- *)

let test_clifford_normalize () =
  let run gates = Rewrite.normalize_cliffords (circ gates) in
  let sandwich = [ Gate.H 0; Gate.S 0; Gate.S 0; Gate.H 0 ] in
  let c, n = run sandwich in
  check_bool "HSSH = X" true (Circuit.gates c = [ Gate.X 0 ]);
  check_int "three eliminated" 3 n;
  Testutil.assert_unitary_equal "HSSH exact" (circ sandwich) c;
  (* Z X = iY: the phase is real, so the run must NOT become Y. *)
  let phased = [ Gate.X 0; Gate.Z 0 ] in
  let c, n = run phased in
  check_int "iY kept as two gates" 0 n;
  check_bool "iY untouched" true (Circuit.gates c = phased);
  (* Other wires interleave freely. *)
  let interleaved = [ Gate.H 0; Gate.X 1; Gate.X 0; Gate.H 0 ] in
  let c, _ = run interleaved in
  check_int "interleaved normalizes" 2 (Circuit.gate_count c);
  Testutil.assert_unitary_equal "interleaved exact" (circ interleaved) c;
  (* Identity runs vanish. *)
  let c, n = run [ Gate.H 0; Gate.H 0 ] in
  check_int "HH vanishes" 0 (Circuit.gate_count c);
  check_int "HH eliminated" 2 n;
  let c, _ = run [ Gate.S 0; Gate.S 0; Gate.S 0; Gate.S 0 ] in
  check_int "SSSS vanishes" 0 (Circuit.gate_count c)

(* [normalize_cliffords] as it was before the group table: each run's
   product is a float matrix product, looked up by a key printed from
   its rounded entries in a table built by the same breadth-first
   search over matrices. *)
module Matrix_keyed = struct
  let matrix_key m =
    let b = Buffer.create 64 in
    let flush v = if abs_float v < 1e-9 then 0.0 else v in
    for r = 0 to 1 do
      for col = 0 to 1 do
        let re, im = Mathkit.Cx.round_key (Mathkit.Matrix.get m r col) in
        Buffer.add_string b (Printf.sprintf "%.6f,%.6f;" (flush re) (flush im))
      done
    done;
    Buffer.contents b

  let table =
    lazy
      (let tbl = Hashtbl.create 512 in
       let id = Mathkit.Matrix.identity 2 in
       Hashtbl.replace tbl (matrix_key id) [];
       let queue = Queue.create () in
       Queue.add (id, []) queue;
       while not (Queue.is_empty queue) do
         let m, word = Queue.pop queue in
         if List.length word < 6 then
           List.iter
             (fun g ->
               let m' = Mathkit.Matrix.mul (Gate.base_matrix g) m in
               let k = matrix_key m' in
               if not (Hashtbl.mem tbl k) then begin
                 let word' = word @ [ g ] in
                 Hashtbl.replace tbl k word';
                 Queue.add (m', word') queue
               end)
             [ Gate.H 0; Gate.S 0; Gate.Sdg 0; Gate.X 0; Gate.Y 0; Gate.Z 0 ]
       done;
       tbl)

  let clifford_1q = function
    | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q -> Some q
    | _ -> None

  let normalize_cliffords c =
    let n = Circuit.n_qubits c in
    let gates = Array.of_list (Circuit.gates c) in
    if n = 0 || Array.length gates = 0 then (c, 0)
    else begin
      let table = Lazy.force table in
      let decisions = Array.make (Array.length gates) `Keep in
      let pending : (int * Gate.t) list array = Array.make n [] in
      let eliminated = ref 0 in
      let finalize q =
        let run = List.rev pending.(q) in
        pending.(q) <- [];
        match run with
        | [] | [ _ ] -> ()
        | (first_idx, _) :: rest ->
          let len = List.length run in
          let product =
            List.fold_left
              (fun acc (_, g) -> Mathkit.Matrix.mul (Gate.base_matrix g) acc)
              (Mathkit.Matrix.identity 2) run
          in
          (match Hashtbl.find_opt table (matrix_key product) with
          | Some word when List.length word < len ->
            decisions.(first_idx)
            <- `Emit (List.map (Gate.rename (fun _ -> q)) word);
            List.iter (fun (i, _) -> decisions.(i) <- `Drop) rest;
            eliminated := !eliminated + (len - List.length word)
          | Some _ | None -> ())
      in
      Array.iteri
        (fun i g ->
          match clifford_1q g with
          | Some q -> pending.(q) <- (i, g) :: pending.(q)
          | None -> List.iter finalize (Gate.support g))
        gates;
      for q = 0 to n - 1 do
        finalize q
      done;
      if !eliminated = 0 then (c, 0)
      else begin
        let out = Circuit.Builder.create ~n in
        Array.iteri
          (fun i g ->
            match decisions.(i) with
            | `Keep -> Circuit.Builder.add out g
            | `Drop -> ()
            | `Emit gs -> Circuit.Builder.add_list out gs)
          gates;
        (Circuit.Builder.to_circuit out, !eliminated)
      end
    end
end

let cliffords = [| Gate.H 0; Gate.S 0; Gate.Sdg 0; Gate.X 0; Gate.Y 0; Gate.Z 0 |]

(* The group table: 192 elements, the identity first with the empty
   word, and a word of at most 6 letters for all but the 6 that need
   7; each word is its element's shortest, so no word of 7 letters
   normalizes to a shorter one than the search found. *)
let test_clifford_table () =
  check_int "group order" 192 Rewrite.clifford_elements;
  let words = List.init Rewrite.clifford_elements Rewrite.clifford_word in
  check_int "elements with a word" 186
    (List.length (List.filter Option.is_some words));
  check_bool "the identity first" true (List.hd words = Some []);
  check_bool "words of at most 6 letters" true
    (List.for_all
       (function Some w -> List.length w <= 6 | None -> true)
       words);
  check_bool "words on qubit 0" true
    (List.for_all
       (function
         | Some w -> List.for_all (fun g -> Gate.support g = [ 0 ]) w
         | None -> true)
       words);
  Alcotest.check_raises "out of range"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Rewrite.clifford_word Rewrite.clifford_elements))

(* The table-driven pass against the matrix-keyed one: every one-qubit
   run of up to 6 letters, seeded random runs of up to 14, and seeded
   3-qubit circuits interleaving the letters with T, Tdg and CNOT. *)
let test_clifford_normalize_matches_matrix_keyed () =
  let cases = ref 0 and changed = ref 0 in
  let agree c =
    incr cases;
    let out, k = Rewrite.normalize_cliffords c in
    let out', k' = Matrix_keyed.normalize_cliffords c in
    if k > 0 then incr changed;
    if not (Circuit.equal out out' && k = k' && (k = 0) = (out == c)) then
      Alcotest.failf "normalize_cliffords differs on\n%s" (Circuit.to_string c)
  in
  let rec words len prefix =
    if len = 0 then agree (Circuit.make ~n:1 (List.rev prefix))
    else Array.iter (fun g -> words (len - 1) (g :: prefix)) cliffords
  in
  for len = 1 to 6 do
    words len []
  done;
  check_int "every run of up to 6" 55_986 !cases;
  let st = Random.State.make [| 30 |] in
  let letter q = Gate.rename (fun _ -> q) cliffords.(Random.State.int st 6) in
  for _ = 1 to 20_000 do
    agree
      (Circuit.make ~n:1 (List.init (1 + Random.State.int st 14) (fun _ -> letter 0)))
  done;
  for _ = 1 to 20_000 do
    let gate _ =
      let q = Random.State.int st 3 in
      match Random.State.int st 10 with
      | 0 -> Gate.T q
      | 1 -> Gate.Tdg q
      | 2 -> Gate.Cnot { control = q; target = (q + 1 + Random.State.int st 2) mod 3 }
      | _ -> letter q
    in
    agree (Circuit.make ~n:3 (List.init (Random.State.int st 24) gate))
  done;
  check_bool (Printf.sprintf "%d of %d cases normalize" !changed !cases) true
    (!changed > 10_000)

(* --- metamorphic: rotation folding over every edge-angle pair --- *)

let test_metamorphic_fold () =
  let rotations =
    [ (fun t q -> Gate.Rz (t, q)); (fun t q -> Gate.Rx (t, q));
      (fun t q -> Gate.Ry (t, q)) ]
  in
  List.iter
    (fun rot ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let input = circ ~n:1 [ rot a 0; rot b 0 ] in
              let folded, _ = Rewrite.merge_rotations input in
              Testutil.assert_unitary_equal
                (Printf.sprintf "fold %g + %g exact" a b)
                input folded)
            Fuzz.Gen.edge_angles)
        Fuzz.Gen.edge_angles)
    rotations

(* --- the tier inside the optimizer loop --- *)

let test_apply_outcome () =
  let checked = Optimize.optimize_budgeted ~check:Oracle.default_budget in
  let inert = circ [ Gate.Cnot { control = 0; target = 1 } ] in
  let out = checked inert in
  check_bool "no-op: circuit untouched" true
    (Circuit.gates out.Optimize.circuit = Circuit.gates inert);
  check_int "no-op: no sweep kept" 0 out.Optimize.iterations;
  let busy =
    circ
      [ Gate.H 0; Gate.X 0; Gate.H 0; Gate.Rz (0.5, 1); Gate.Rz (0.25, 1) ]
  in
  let out = checked busy in
  check_bool "oracle kept the sweep" true (out.Optimize.reverted = None);
  Testutil.assert_unitary_equal "tier exact" busy out.Optimize.circuit;
  check_int "tier shrinks" 2 (Circuit.gate_count out.Optimize.circuit);
  let untouched = Optimize.optimize ~rules:Rewrite.empty_selection busy in
  check_bool "empty selection leaves no inverse pairs to cancel" true
    (Circuit.gates untouched = Circuit.gates busy)

let test_apply_trace () =
  let trace = Trace.create () in
  let busy = circ [ Gate.H 0; Gate.X 0; Gate.H 0 ] in
  let _ = Optimize.optimize ~trace busy in
  let totals = Trace.counter_totals trace in
  check_bool "rewrite counters bumped" true
    (List.exists
       (fun (k, v) ->
         String.length k > 8 && String.sub k 0 8 = "rewrite/" && v > 0.0)
       totals)

let test_oracle_gives_up () =
  (* A 1-node budget cannot settle the check on QMDD (15 qubits is past
     the dense cap): the sweep is dropped and the outcome says why. *)
  let wide = Circuit.make ~n:15 [ Gate.T 14; Gate.T 14; Gate.H 0 ] in
  let out =
    Optimize.optimize_budgeted
      ~check:{ Oracle.default_budget with Oracle.node_budget = Some 1 }
      wide
  in
  check_bool "input kept" true
    (Circuit.gates out.Optimize.circuit = Circuit.gates wide);
  check_bool "gave up on the node budget" true
    (out.Optimize.reverted
    = Some "equivalence oracle gave up: QMDD node budget exhausted")

(* --- optimizer integration: pinned T-count deltas --- *)

let stage_rules rules c = Optimize.optimize ~rules c

let test_benchmark_deltas () =
  (* Pinned deltas: the phase-polynomial pass is what moves the
     T-count, so a silent regression there flips these exact numbers.
     Without rules a sweep only cancels inverse pairs and removes
     identity windows, so phase and rotation fusion are off too. *)
  let adder = Decompose.to_native (Benchsuite.Classics.cuccaro_adder 3) in
  let base = stage_rules Rewrite.empty_selection adder in
  let opt = stage_rules Rewrite.default_selection adder in
  check_int "adder T-count without tier" 42 (Circuit.t_count base);
  check_int "adder T-count with tier" 24 (Circuit.t_count opt);
  check_int "adder volume without tier" 103 (Circuit.gate_count base);
  check_int "adder volume with tier" 88 (Circuit.gate_count opt);
  check_bool "adder equivalent" true
    (Qmdd.equivalent ~up_to_phase:false adder opt);
  (* The native QFT is Rz-based (T-count 0 both ways); the tier still
     buys gate volume through rotation merging. *)
  let qft = Decompose.to_native (Benchsuite.Classics.qft 4) in
  let base_q = stage_rules Rewrite.empty_selection qft in
  let opt_q = stage_rules Rewrite.default_selection qft in
  check_int "qft volume without tier" 34 (Circuit.gate_count base_q);
  check_int "qft volume with tier" 28 (Circuit.gate_count opt_q);
  check_bool "qft equivalent" true
    (Qmdd.equivalent ~up_to_phase:false qft opt_q)

(* --- differential: native matches against the pattern interpreter ---

   [Reference] is the interpreter the registry's native matches
   replaced: gate patterns over wire/angle metavariables, an assoc-list
   environment, guard and replacement closures over it.  It is kept
   here as the behaviour the native rules must reproduce exactly —
   output gates (angles bit for bit) and per-rule counts.  Pattern
   constructors no rule used (T, Tdg, Phase, SWAP) are left out. *)

module Reference = struct
  type gate_pattern =
    | Px of int
    | Py of int
    | Pz of int
    | Ph of int
    | Ps of int
    | Psdg of int
    | Prx of int * int  (* angle metavariable, wire metavariable *)
    | Pry of int * int
    | Prz of int * int
    | Pcnot of int * int  (* control, target *)
    | Pcz of int * int

  type env = { wires : (int * int) list; angles : (int * float) list }

  let empty_env = { wires = []; angles = [] }
  let wire env v = List.assoc v env.wires
  let angle env v = List.assoc v env.angles

  let bind_wire env v q =
    match List.assoc_opt v env.wires with
    | Some q' -> if q' = q then Some env else None
    | None -> Some { env with wires = (v, q) :: env.wires }

  let bind_angle env v a =
    match List.assoc_opt v env.angles with
    | Some a' -> if a' = a then Some env else None
    | None -> Some { env with angles = (v, a) :: env.angles }

  (* Every extension of [env] under which [p] matches [g]; CZ tries both
     operand orders. *)
  let match_gate env p g =
    let one = function Some e -> [ e ] | None -> [] in
    match (p, g) with
    | Px v, Gate.X q
    | Py v, Gate.Y q
    | Pz v, Gate.Z q
    | Ph v, Gate.H q
    | Ps v, Gate.S q
    | Psdg v, Gate.Sdg q ->
      one (bind_wire env v q)
    | Prx (av, wv), Gate.Rx (theta, q)
    | Pry (av, wv), Gate.Ry (theta, q)
    | Prz (av, wv), Gate.Rz (theta, q) -> (
      match bind_wire env wv q with
      | None -> []
      | Some e -> one (bind_angle e av theta))
    | Pcnot (cv, tv), Gate.Cnot { control; target } -> (
      match bind_wire env cv control with
      | None -> []
      | Some e -> one (bind_wire e tv target))
    | Pcz (uv, vv), Gate.Cz (a, b) ->
      let try_order x y =
        match bind_wire env uv x with
        | None -> []
        | Some e -> one (bind_wire e vv y)
      in
      try_order a b @ try_order b a
    | _, _ -> []

  type rule = {
    name : string;
    pattern : gate_pattern list;
    guard : device:Device.t option -> env -> bool;
    replacement : env -> Gate.t list;
  }

  let direction_ok ~device ~control ~target =
    match device with
    | None -> true
    | Some d -> Device.allows_cnot d ~control ~target

  let no_guard ~device:_ _ = true

  let conj name pattern replacement =
    { name; pattern; guard = no_guard; replacement }

  let rules =
    [
      {
        name = "cnot-reversal";
        pattern = [ Ph 0; Ph 1; Pcnot (2, 3); Ph 4; Ph 5 ];
        guard =
          (fun ~device env ->
            let c = wire env 2 and t = wire env 3 in
            let pair u v = (u = c && v = t) || (u = t && v = c) in
            pair (wire env 0) (wire env 1)
            && pair (wire env 4) (wire env 5)
            && direction_ok ~device ~control:t ~target:c);
        replacement =
          (fun env ->
            [ Gate.Cnot { control = wire env 3; target = wire env 2 } ]);
      };
      conj "h-x-h-to-z" [ Ph 0; Px 0; Ph 0 ] (fun env ->
          [ Gate.Z (wire env 0) ]);
      conj "h-z-h-to-x" [ Ph 0; Pz 0; Ph 0 ] (fun env ->
          [ Gate.X (wire env 0) ]);
      {
        name = "h-cz-h-to-cnot";
        pattern = [ Ph 0; Pcz (1, 0); Ph 0 ];
        guard =
          (fun ~device env ->
            direction_ok ~device ~control:(wire env 1) ~target:(wire env 0));
        replacement =
          (fun env ->
            [ Gate.Cnot { control = wire env 1; target = wire env 0 } ]);
      };
      conj "x-rz-x-flip" [ Px 0; Prz (0, 0); Px 0 ] (fun env ->
          [ Gate.Rz (-.angle env 0, wire env 0) ]);
      conj "x-ry-x-flip" [ Px 0; Pry (0, 0); Px 0 ] (fun env ->
          [ Gate.Ry (-.angle env 0, wire env 0) ]);
      conj "z-rx-z-flip" [ Pz 0; Prx (0, 0); Pz 0 ] (fun env ->
          [ Gate.Rx (-.angle env 0, wire env 0) ]);
      conj "z-ry-z-flip" [ Pz 0; Pry (0, 0); Pz 0 ] (fun env ->
          [ Gate.Ry (-.angle env 0, wire env 0) ]);
      conj "h-rx-h-to-rz" [ Ph 0; Prx (0, 0); Ph 0 ] (fun env ->
          [ Gate.Rz (angle env 0, wire env 0) ]);
      conj "h-rz-h-to-rx" [ Ph 0; Prz (0, 0); Ph 0 ] (fun env ->
          [ Gate.Rx (angle env 0, wire env 0) ]);
      conj "sdg-x-s-to-y" [ Psdg 0; Px 0; Ps 0 ] (fun env ->
          [ Gate.Y (wire env 0) ]);
      conj "s-y-sdg-to-x" [ Ps 0; Py 0; Psdg 0 ] (fun env ->
          [ Gate.X (wire env 0) ]);
      {
        name = "cnot-triple-to-swap";
        pattern = [ Pcnot (0, 1); Pcnot (1, 0); Pcnot (0, 1) ];
        guard = (fun ~device _ -> device = None);
        replacement = (fun env -> [ Gate.Swap (wire env 0, wire env 1) ]);
      };
    ]

  (* Match [rule.pattern] against a prefix of [gates]; the first binding
     that satisfies the guard wins. *)
  let match_rule ~device rule gates =
    let rec go envs pats gs =
      match pats with
      | [] -> (
        match List.find_opt (fun e -> rule.guard ~device e) envs with
        | Some e -> Some (rule.replacement e, gs)
        | None -> None)
      | p :: prest -> (
        match gs with
        | [] -> None
        | g :: grest -> (
          match List.concat_map (fun e -> match_gate e p g) envs with
          | [] -> None
          | envs' -> go envs' prest grest))
    in
    go [ empty_env ] rule.pattern gates

  let apply_templates ?device ~selection c =
    let enabled_rules =
      List.filter (fun r -> Rewrite.enabled selection r.name) rules
    in
    let counts = Hashtbl.create 8 in
    let bump name =
      Hashtbl.replace counts name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
    in
    let rec go acc todo =
      match todo with
      | [] -> List.rev acc
      | g :: rest ->
        let rec first = function
          | [] -> None
          | r :: more -> (
            match match_rule ~device r todo with
            | Some (replacement, tail) ->
              bump r.name;
              Some (replacement @ tail)
            | None -> first more)
        in
        (match first enabled_rules with
        | Some todo' -> go acc todo'
        | None -> go (g :: acc) rest)
    in
    let gates = go [] (Circuit.gates c) in
    let applied =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
    in
    if applied = [] then (c, [])
    else (Circuit.make ~n:(Circuit.n_qubits c) gates, applied)
end

(* Random circuits on 2-4 qubits of up to 24 gates from H, X, Y, Z, S,
   Sdg, Rx/Ry/Rz at edge angles (-0.0 included), CNOT and CZ (both
   operand orders).  Gates come singly or as template-shaped motifs
   whose kinds and wires are sometimes perturbed, so exact matches and
   near misses both occur often.  Each case also draws a selection that
   drops some templates, to exercise registry priority. *)
let gen_diff_case st =
  let n = 2 + Random.State.int st 3 in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let q () = Random.State.int st n in
  let other a = (a + 1 + Random.State.int st (n - 1)) mod n in
  let near a = if Random.State.int st 4 = 0 then q () else a in
  let angle () = pick (-0.0 :: Fuzz.Gen.edge_angles) in
  let h a = Gate.H a and x a = Gate.X a and y a = Gate.Y a
  and z a = Gate.Z a and s a = Gate.S a and sdg a = Gate.Sdg a in
  let rx a = Gate.Rx (angle (), a) and ry a = Gate.Ry (angle (), a)
  and rz a = Gate.Rz (angle (), a) in
  let cnot a = Gate.Cnot { control = a; target = other a } in
  let cz a =
    let b = other a in
    if Random.State.bool st then Gate.Cz (a, b) else Gate.Cz (b, a)
  in
  let kinds = [ h; x; y; z; s; sdg; rx; ry; rz; cnot; cz ] in
  let skeletons =
    [ (h, x, h); (h, z, h); (h, cz, h); (x, rz, x); (x, ry, x); (z, rx, z);
      (z, ry, z); (h, rx, h); (h, rz, h); (sdg, x, s); (s, y, sdg) ]
  in
  let piece () =
    match Random.State.int st 5 with
    | 0 | 1 -> [ (pick kinds) (q ()) ]
    | 2 ->
      let o, m, o' =
        if Random.State.bool st then pick skeletons
        else (pick kinds, pick kinds, pick kinds)
      in
      let a = q () in
      [ o a; m (near a); o' (near a) ]
    | 3 ->
      let c = q () in
      let t = other c in
      let either () = near (if Random.State.bool st then c else t) in
      [ h (either ()); h (either ());
        Gate.Cnot { control = c; target = t }; h (either ()); h (either ()) ]
    | _ ->
      let a = q () in
      let b = other a in
      let cx c t = Gate.Cnot { control = c; target = t } in
      [ cx a b;
        (if Random.State.int st 4 = 0 then cnot (q ()) else cx b a);
        (if Random.State.int st 4 = 0 then cnot (q ()) else cx a b) ]
  in
  let len = Random.State.int st 25 in
  let rec fill acc =
    if List.length acc >= len then List.filteri (fun i _ -> i < len) acc
    else fill (acc @ piece ())
  in
  let selection =
    List.fold_left
      (fun acc name ->
        if Random.State.int st 4 = 0 then acc ^ ",-" ^ name else acc)
      "default" template_names
  in
  (Circuit.make ~n (fill []), sel selection)

let angle_bits c =
  List.map
    (function
      | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rz (t, _) | Gate.Phase (t, _) ->
        Some (Int64.bits_of_float t)
      | _ -> None)
    (Circuit.gates c)

let test_differential () =
  let fired = Hashtbl.create 16 in
  let devices n =
    let chain = List.init (n - 1) (fun i -> (i, i + 1)) in
    [ None;
      Some (Device.make ~name:"one-way" ~n_qubits:n chain);
      Some (Device.make ~name:"two-way" ~n_qubits:n
              (chain @ List.map (fun (a, b) -> (b, a)) chain)) ]
  in
  let agrees ?device selection c =
    let native, counts = Rewrite.apply_templates ?device ~selection c in
    let reference, ref_counts =
      Reference.apply_templates ?device ~selection c
    in
    List.iter
      (fun (name, k) ->
        Hashtbl.replace fired name
          (k + Option.value ~default:0 (Hashtbl.find_opt fired name)))
      counts;
    Circuit.equal native reference
    && angle_bits native = angle_bits reference
    && counts = ref_counts
  in
  let prop =
    QCheck2.Test.make ~name:"native templates = interpreter" ~count:2000
      ~print:(fun (c, s) ->
        Circuit.to_string c ^ "selection " ^ Rewrite.selection_to_string s)
      (Testutil.of_fuzz_gen gen_diff_case)
      (fun (c, selection) ->
        List.for_all
          (fun device ->
            agrees ?device Rewrite.default_selection c
            && agrees ?device selection c)
          (devices (Circuit.n_qubits c)))
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 16 |]) prop;
  (* The comparison is only as good as the rules it exercises. *)
  List.iter
    (fun name ->
      check_bool (name ^ " exercised") true
        (Option.value ~default:0 (Hashtbl.find_opt fired name) > 0))
    template_names

(* --- README drift --- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Rows of the Optimization section's rule table:
   | `name` | pattern | side condition |. *)
let readme_rule_rows () =
  let lines = read_lines "../README.md" in
  let in_section = ref false in
  List.filter_map
    (fun line ->
      if String.length line >= 2 && String.sub line 0 2 = "##" then (
        in_section :=
          String.trim line = "## Optimization";
        None)
      else if
        !in_section && String.length line > 3
        && String.sub line 0 3 = "| `"
      then
        match String.index_from_opt line 3 '`' with
        | Some stop -> Some (line, String.sub line 3 (stop - 3))
        | None -> None
      else None)
    lines

let test_readme_table () =
  let rows = readme_rule_rows () in
  let row_names = List.map snd rows in
  check_int "one row per template" (List.length template_names)
    (List.length rows);
  List.iter
    (fun n ->
      check_bool (n ^ " documented in README") true (List.mem n row_names))
    template_names;
  List.iter
    (fun n ->
      check_bool (n ^ " is a registered template") true (List.mem n template_names))
    row_names;
  (* Pattern and side-condition cells must match the registry verbatim. *)
  List.iter
    (fun (line, name) ->
      match Rewrite.find_rule name with
      | None -> Alcotest.failf "%s: not a rule" name
      | Some r ->
        let cells =
          String.split_on_char '|' line |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        (match cells with
        | [ _; pattern; guard ] ->
          check_bool (name ^ " pattern in sync") true
            (pattern = r.Rewrite.pattern_doc);
          check_bool (name ^ " guard in sync") true
            (guard = r.Rewrite.guard_doc)
        | _ -> Alcotest.failf "%s: malformed table row" name))
    rows;
  (* Every engine pass is mentioned in the section too. *)
  let lines = read_lines "../README.md" in
  let section =
    let in_section = ref false in
    List.filter
      (fun line ->
        if String.length line >= 2 && String.sub line 0 2 = "##" then (
          in_section := String.trim line = "## Optimization";
          false)
        else !in_section)
      lines
    |> String.concat "\n"
  in
  List.iter
    (fun p ->
      let needle = "`" ^ p ^ "`" in
      let found =
        let nl = String.length needle and sl = String.length section in
        let rec scan i =
          i + nl <= sl && (String.sub section i nl = needle || scan (i + 1))
        in
        scan 0
      in
      check_bool (p ^ " described in README") true found)
    Rewrite.engine_pass_names

let () =
  Alcotest.run "rewrite"
    [
      ( "registry",
        [
          Alcotest.test_case "completeness" `Quick test_registry_complete;
          Alcotest.test_case "selection parsing" `Quick test_selection_parsing;
        ] );
      ( "templates",
        [
          Alcotest.test_case "fire" `Quick test_templates_fire;
          Alcotest.test_case "near miss" `Quick test_templates_near_miss;
          Alcotest.test_case "device guards" `Quick test_device_guards;
          Alcotest.test_case "rule heads" `Quick test_rule_heads;
          Alcotest.test_case "differential vs interpreter" `Quick
            test_differential;
        ] );
      ( "engine passes",
        [
          Alcotest.test_case "rotation merge" `Quick test_rotation_merge;
          Alcotest.test_case "phase merge" `Quick test_phase_merge;
          Alcotest.test_case "clifford normalize" `Quick test_clifford_normalize;
          Alcotest.test_case "clifford group table" `Quick test_clifford_table;
          Alcotest.test_case "clifford normalize matches the matrix-keyed pass"
            `Quick test_clifford_normalize_matches_matrix_keyed;
          Alcotest.test_case "metamorphic fold" `Quick test_metamorphic_fold;
        ] );
      ( "tier",
        [
          Alcotest.test_case "apply outcome" `Quick test_apply_outcome;
          Alcotest.test_case "apply trace" `Quick test_apply_trace;
          Alcotest.test_case "oracle gives up" `Quick test_oracle_gives_up;
          Alcotest.test_case "benchmark deltas" `Quick test_benchmark_deltas;
        ] );
      ( "docs",
        [ Alcotest.test_case "README table" `Quick test_readme_table ] );
    ]
