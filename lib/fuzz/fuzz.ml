(* Differential fuzzing & metamorphic property testing.  See fuzz.mli
   for the overview; everything here is deterministic under the seed. *)

let pi = 4.0 *. atan 1.0

(* --- generators --- *)

module Gen = struct
  type 'a t = Random.State.t -> 'a

  let run ~seed g = g (Random.State.make [| seed |])
  let int bound st = Random.State.int st bound

  let choose xs st =
    match xs with
    | [] -> invalid_arg "Fuzz.Gen.choose: empty list"
    | _ -> List.nth xs (Random.State.int st (List.length xs))

  (* Edge angles: exact identities (0, multiples of pi/4), the fold
     boundary of Gate.canonical_angle and its 1e-12 snap threshold,
     and a huge-but-foldable magnitude.  1e6 is the largest edge kept:
     folding theta mod 2pi loses ~theta*eps absolute accuracy, so 1e6
     stays well inside the 1e-9 oracle tolerance while still stressing
     argument reduction (1e15 would turn every canonicalization into a
     genuinely different unitary).  Everything stays finite. *)
  let edge_angles =
    [
      0.0; pi; -.pi; 2.0 *. pi; -2.0 *. pi; pi /. 2.0; pi /. 4.0;
      -.(pi /. 4.0); 1e-13; -1e-13; pi -. 1e-13; -.pi +. 1e-13; 1e6;
    ]

  let angle st =
    if Random.State.bool st then choose edge_angles st
    else Random.State.float st (4.0 *. pi) -. (2.0 *. pi)

  let qubit n st = Random.State.int st n

  (* Two distinct qubits in [0, n); n >= 2. *)
  let pair n st =
    let a = Random.State.int st n in
    let b = (a + 1 + Random.State.int st (n - 1)) mod n in
    (a, b)

  (* [k] distinct qubits in [0, n); n >= k. *)
  let distinct k n st =
    let picked = ref [] in
    for _ = 1 to k do
      let candidates =
        List.filter (fun q -> not (List.mem q !picked)) (List.init n Fun.id)
      in
      picked := List.nth candidates (Random.State.int st (List.length candidates)) :: !picked
    done;
    !picked

  let singles =
    [
      (fun q -> Gate.X q); (fun q -> Gate.Y q); (fun q -> Gate.Z q);
      (fun q -> Gate.H q); (fun q -> Gate.S q); (fun q -> Gate.Sdg q);
      (fun q -> Gate.T q); (fun q -> Gate.Tdg q);
    ]

  let rotations =
    [
      (fun theta q -> Gate.Rx (theta, q)); (fun theta q -> Gate.Ry (theta, q));
      (fun theta q -> Gate.Rz (theta, q));
      (fun theta q -> Gate.Phase (theta, q));
    ]

  (* The full gate set that fits an n-qubit register.  Generalized
     Toffolis appear only from 5 qubits so Barenco lowering always has
     a borrowable work qubit. *)
  let gate ~n st =
    let kinds =
      12 + (if n >= 2 then 3 else 0) + (if n >= 3 then 1 else 0)
      + if n >= 5 then 1 else 0
    in
    match Random.State.int st kinds with
    | k when k < 8 -> (List.nth singles k) (qubit n st)
    | k when k < 12 ->
      let theta = angle st in
      (List.nth rotations (k - 8)) theta (qubit n st)
    | 12 ->
      let control, target = pair n st in
      Gate.Cnot { control; target }
    | 13 ->
      let a, b = pair n st in
      Gate.Cz (a, b)
    | 14 ->
      let a, b = pair n st in
      Gate.Swap (a, b)
    | 15 ->
      let[@warning "-8"] [ a; b; c ] = distinct 3 n st in
      Gate.Toffoli { c1 = a; c2 = b; target = c }
    | _ ->
      let[@warning "-8"] [ a; b; c; d ] = distinct 4 n st in
      Gate.mct [ a; b; c ] d

  let native_gate ~n st =
    let kinds = 8 + if n >= 2 then 1 else 0 in
    match Random.State.int st kinds with
    | k when k < 8 -> (List.nth singles k) (qubit n st)
    | _ ->
      let control, target = pair n st in
      Gate.Cnot { control; target }

  let circuit ?(gate = gate) ~max_qubits ~max_gates st =
    let n = 1 + Random.State.int st max_qubits in
    let len = Random.State.int st (max_gates + 1) in
    let b = Circuit.Builder.create ~n in
    for _ = 1 to len do
      Circuit.Builder.add b (gate ~n st)
    done;
    Circuit.Builder.to_circuit b

  (* A connected device: chain, ring, star, or random spanning tree
     plus extra couplings; every edge in a random orientation (or
     both).  Connectivity is by construction, so routing always has a
     path. *)
  let device ~max_qubits st =
    let n = 2 + Random.State.int st (max 1 (max_qubits - 1)) in
    let base =
      match Random.State.int st 4 with
      | 0 -> List.init (n - 1) (fun i -> (i, i + 1)) (* chain *)
      | 1 ->
        (* ring (degenerates to a chain at width 2) *)
        let chain = List.init (n - 1) (fun i -> (i, i + 1)) in
        if n >= 3 then (n - 1, 0) :: chain else chain
      | 2 -> List.init (n - 1) (fun i -> (0, i + 1)) (* star *)
      | _ ->
        (* random spanning tree: each node links to an earlier one *)
        let tree =
          List.init (n - 1) (fun i ->
              let child = i + 1 in
              (Random.State.int st child, child))
        in
        let extras = Random.State.int st (n + 1) in
        let rec add k acc =
          if k = 0 then acc
          else
            let a = Random.State.int st n in
            let b = Random.State.int st n in
            if a = b then add (k - 1) acc else add (k - 1) ((a, b) :: acc)
        in
        add extras tree
    in
    let orient (a, b) =
      match Random.State.int st 3 with
      | 0 -> [ (a, b) ]
      | 1 -> [ (b, a) ]
      | _ -> [ (a, b); (b, a) ]
    in
    let couplings = List.sort_uniq compare (List.concat_map orient base) in
    Device.make ~name:"fuzz" ~n_qubits:n couplings

  let truth_table ~max_inputs st =
    let n = 1 + Random.State.int st max_inputs in
    Array.init (1 lsl n) (fun _ -> Random.State.bool st)

  let pla ~max_inputs st =
    let n_inputs = 1 + Random.State.int st max_inputs in
    let n_outputs = 1 + Random.State.int st 2 in
    let kind =
      if Random.State.bool st then Qformats.Pla.Sop else Qformats.Pla.Esop
    in
    let n_cubes = Random.State.int st ((2 * n_inputs) + 3) in
    let cube () =
      let inputs =
        Array.init n_inputs (fun _ ->
            match Random.State.int st 3 with
            | 0 -> Qformats.Pla.Zero
            | 1 -> Qformats.Pla.One
            | _ -> Qformats.Pla.Dash)
      in
      let outputs = Array.init n_outputs (fun _ -> Random.State.bool st) in
      { Qformats.Pla.inputs; outputs }
    in
    {
      Qformats.Pla.n_inputs;
      n_outputs;
      kind;
      cubes = List.init n_cubes (fun _ -> cube ());
    }
end

(* --- cases --- *)

type case =
  | Circuit_case of {
      circuit : Circuit.t;
      device : Device.t option;
      budget : int option;
    }
  | Optimize_case of {
      circuit : Circuit.t;
      device : Device.t option;
      cost : Cost.t;
      rules : Rewrite.selection;
    }
  | Function_case of { pla : Qformats.Pla.t }
  | Source_case of { ext : string; text : string }
  | Fault_case of {
      circuit : Circuit.t;
      fault : (Faultinject.spec * int) option;
    }
  | Options_case of { circuit : Circuit.t; device : Device.t; draw : int array }

(* --- drawn compile options --- *)

(* An [Options_case] names its options by one choice index per field,
   each below its count here: the cost (Eqn. 2, [Log_fidelity],
   [Linear]), the [Linear] weights of T, CNOT and gate, the router
   (CTR, weighted CTR, tracking), pre-optimize, post-optimize,
   fold-states, placement, contracts, the rules (all, none), the
   verification mode (skip, QMDD, fallback), its node budget (none, 1,
   1000), the fallback's dense cap (0, 10), the deadline (none, 0 s),
   the iteration cap and the SWAP budget (none, 0, 1).  A positive
   deadline is left out: what it stops would depend on timing. *)
let draw_choices = [| 3; 5; 5; 5; 3; 2; 2; 2; 2; 2; 2; 3; 3; 2; 2; 3; 3 |]

(* The options a draw names on [device], whose synthetic calibration
   the fidelity cost and the weighted router use, so a case that
   shrinking narrows stays consistent. *)
let options_of_draw device d =
  let cal = Calibration.synthetic device in
  let pick i xs = List.nth xs d.(i) and flag i = d.(i) = 1 in
  let weight i = List.nth [ 0.0; 0.25; 0.5; 1.0; 10.0 ] d.(i) in
  let limit i = pick i [ None; Some 0; Some 1 ] in
  let node_budget = pick 12 [ None; Some 1; Some 1000 ] in
  let max_sim_qubits = pick 13 [ 0; 10 ] in
  {
    Compiler.device;
    cost =
      pick 0
        [
          Cost.eqn2;
          Cost.Log_fidelity cal;
          Cost.Linear { t = weight 1; cnot = weight 2; gate = weight 3 };
        ];
    router = pick 4 Compiler.[ Ctr; Weighted_ctr cal; Tracking ];
    pre_optimize = flag 5;
    post_optimize = flag 6;
    fold_states = flag 7;
    use_placement = flag 8;
    check_contracts = flag 9;
    rewrite_rules = pick 10 Rewrite.[ default_selection; empty_selection ];
    verification =
      pick 11
        Compiler.
          [
            Skip;
            Qmdd_check { node_budget };
            Fallback { node_budget; max_sim_qubits };
          ];
    budgets =
      {
        deadline_seconds = pick 14 [ None; Some 0.0 ];
        max_optimize_iterations = limit 15;
        swap_budget = limit 16;
      };
  }

let draw_to_string d =
  String.concat " " (List.map string_of_int (Array.to_list d))

let draw_of_string s =
  let d =
    Array.of_list
      (List.filter_map int_of_string_opt (String.split_on_char ' ' s))
  in
  if
    Array.length d = Array.length draw_choices
    && Array.for_all2 (fun k n -> 0 <= k && k < n) d draw_choices
  then Some d
  else None

(* A circuit case's printout: its size, its device, one line per
   setting, then the gates. *)
let circuit_to_string ~settings circuit device =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "circuit: %d qubit(s), %d gate(s)\n"
       (Circuit.n_qubits circuit)
       (Circuit.gate_count circuit));
  (match device with
  | Some d ->
    Buffer.add_string b
      (Printf.sprintf "device: %d qubit(s) %s\n" (Device.n_qubits d)
         (Device.to_dict_string d))
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\n" k v))
    settings;
  Buffer.add_string b (Circuit.to_string circuit);
  Buffer.contents b

(* The cost and rule selection of an [Optimize_case], exactly: the
   repro headers and the case printout. *)
let optimize_settings cost rules =
  [ ("cost", Cost.to_string cost); ("rules", Rewrite.selection_to_string rules) ]

(* The injected fault of a [Fault_case], exactly: the repro headers
   and the case printout. *)
let fault_settings = function
  | None -> [ ("fault", "none") ]
  | Some (spec, seed) ->
    [
      ("fault", Faultinject.spec_to_string spec);
      ("fault seed", string_of_int seed);
    ]

let case_to_string = function
  | Circuit_case { circuit; device; budget } ->
    let settings =
      match budget with
      | Some k -> [ ("swap budget", string_of_int k) ]
      | None -> []
    in
    circuit_to_string ~settings circuit device
  | Optimize_case { circuit; device; cost; rules } ->
    circuit_to_string ~settings:(optimize_settings cost rules) circuit device
  | Function_case { pla } -> Qformats.Pla.to_string pla
  | Source_case { ext; text } ->
    Printf.sprintf "source (%s):\n%s" ext text
  | Fault_case { circuit; fault } ->
    circuit_to_string ~settings:(fault_settings fault) circuit None
  | Options_case { circuit; device; draw } ->
    circuit_to_string
      ~settings:
        [
          ("options", draw_to_string draw);
          ("as", Compiler.canonical_options (options_of_draw device draw));
        ]
      circuit (Some device)

(* --- configuration --- *)

type config = { max_qubits : int; max_gates : int }

let default_config = { max_qubits = 8; max_gates = 16 }

(* --- properties --- *)

module Property = struct
  type outcome = Pass | Fail of string

  type t = {
    name : string;
    doc : string;
    paper : string;
    gen : config -> case Gen.t;
    check : case -> outcome;
  }

  let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

  let check_all checks =
    let rec go = function
      | [] -> Pass
      | (ok, msg) :: rest -> if ok () then go rest else Fail (msg ())
    in
    go checks

  (* Clamp generation to widths the dense oracle handles comfortably. *)
  let dev_gen ~cap cfg st = Gen.device ~max_qubits:(min cap cfg.max_qubits) st

  let circuit_on_device ?gate cfg d st =
    Gen.circuit ?gate ~max_qubits:(Device.n_qubits d)
      ~max_gates:cfg.max_gates st

  let wrong_case name =
    Fail (Printf.sprintf "%s: unexpected case shape" name)

  (* Count output gates the coupling map does not allow in either
     direction. *)
  let illegal_cnots d c =
    Circuit.fold
      (fun acc g ->
        match g with
        | Gate.Cnot { control; target }
          when not (Device.coupled d control target) ->
          acc + 1
        | _ -> acc)
      0 c

  let count_swaps c =
    Circuit.fold
      (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
      0 c

  let compile_options d =
    { (Compiler.default_options ~device:d) with Compiler.verification = Skip }

  let compile_and_report ~name d circuit k =
    match
      Compiler.compile_checked (compile_options d) (Compiler.Quantum circuit)
    with
    | Error ds ->
      failf "%s: compile failed: %s" name
        (String.concat "; " (List.map Diagnostic.to_string ds))
    | Ok report -> k report

  (* 1. The paper's Sec. 5 guarantee, checked against the dense
     simulator: compiling never changes the computed unitary (up to
     global phase). *)
  let compile_sim_equivalent =
    {
      name = "compile-sim-equivalent";
      doc = "compiled output matches the input under the dense Sim oracle";
      paper = "Sec. 5 (equivalence checking)";
      gen =
        (fun cfg st ->
          let d = dev_gen ~cap:6 cfg st in
          let c = circuit_on_device cfg d st in
          Circuit_case { circuit = c; device = Some d; budget = None });
      check =
        (function
        | Circuit_case { circuit; device = Some d; _ } ->
          compile_and_report ~name:"compile-sim-equivalent" d circuit
            (fun r ->
              if
                Sim.equivalent ~up_to_phase:true r.Compiler.reference
                  r.Compiler.optimized
              then Pass
              else failf "Sim oracle: output unitary differs from reference")
        | _ -> wrong_case "compile-sim-equivalent");
    }

  (* 2. The same guarantee under the QMDD canonical form — the check
     the compiler itself ships; running it with verification disabled
     and comparing independently keeps the two oracles honest against
     each other. *)
  let compile_qmdd_equivalent =
    {
      name = "compile-qmdd-equivalent";
      doc = "compiled output matches the input under the QMDD oracle";
      paper = "Sec. 5 (QMDD equivalence)";
      gen =
        (fun cfg st ->
          let d = dev_gen ~cap:8 cfg st in
          let c = circuit_on_device cfg d st in
          Circuit_case { circuit = c; device = Some d; budget = None });
      check =
        (function
        | Circuit_case { circuit; device = Some d; _ } ->
          compile_and_report ~name:"compile-qmdd-equivalent" d circuit
            (fun r ->
              if
                Qmdd.equivalent ~up_to_phase:true r.Compiler.reference
                  r.Compiler.optimized
              then Pass
              else failf "QMDD oracle: output differs from reference")
        | _ -> wrong_case "compile-qmdd-equivalent");
    }

  (* One sweep of the optimizer's passes, in the loop's order, each
     called through its public entry point and kept when it does not
     raise [cost].  It shares no code with the loop, so it also sees a
     loop that skips a pass in every sweep it runs. *)
  let sweep_once ?device ~cost ~rules c =
    let counted name f c =
      if not (Rewrite.enabled rules name) then c
      else match f c with _, 0 -> c | c', _ -> c'
    in
    List.fold_left
      (fun c pass ->
        let c' = pass c in
        if Cost.evaluate cost c' <= Cost.evaluate cost c +. 1e-9 then c' else c)
      c
      [
        (fun c -> Optimize.cancel_pass c);
        (fun c -> fst (Rewrite.apply_templates ?device ~selection:rules c));
        counted "rotation-merge" Rewrite.merge_rotations;
        counted "phase-merge" Rewrite.merge_phase_polynomial;
        counted "clifford-normalize" Rewrite.normalize_cliffords;
        (fun c -> Optimize.remove_identity_windows c);
      ]

  (* [c] widened to [d] with, at a random position, a relabelled copy
     of a circuit whose second sweep must run past where the first left
     off, when [d] has its couplings: both directions of some p-q and
     s -> r besides.  On a device (so no SWAP template), the first
     sweep's last kept pass is clifford-normalize: phase-merge makes
     H r; S r; S r; H r into H r; Z r; H r and clifford-normalize makes
     that X r.  In the second sweep cancellation deletes that X r with
     the last one, through the CNOT s -> r, which joins two SWAPs of p
     and q that only identity-window removal deletes.  A sweep that
     ended where the first one left off would stop short of it. *)
  let with_late_pass_case d c st =
    let allowed control target = Device.allows_cnot d ~control ~target in
    let fits =
      List.concat_map
        (fun (p, q) ->
          List.filter_map
            (fun (s, r) ->
              if allowed q p && not (List.mem r [ p; q ] || List.mem s [ p; q ])
              then Some (p, q, r, s)
              else None)
            (Device.couplings d))
        (Device.couplings d)
    in
    if fits = [] then c
    else
      let p, q, r, s = Gen.choose fits st in
      let cx control target = Gate.Cnot { control; target } in
      let gates = Circuit.gates c in
      let k = Random.State.int st (List.length gates + 1) in
      Circuit.make ~n:(Device.n_qubits d)
        (List.filteri (fun i _ -> i < k) gates
        @ [ cx p q; cx q p; cx p q; Gate.H r; Gate.S r; Gate.S r; Gate.H r ]
        @ [ cx q p; cx p q; cx q p; cx s r; Gate.X r ]
        @ List.filteri (fun i _ -> i >= k) gates)

  (* 3. Optimization is exact (not merely up to phase), the cost
     function never goes up, and the output is a fixed point — Sec. 4,
     items 5-6.  Neither optimizing the output again nor one sweep of
     the passes may lower its cost: a sweep that ends early must not
     have stopped short of one that would still improve.  Each case
     draws its objective and its rules (all or none).  Half the
     objectives are Eqn. 2 or T-weighted, half any weighting of Eqn. 2's
     linear family, as [qsc compile --cost-weights] accepts: each
     weight from {0, 0.25, 0.5, 1, 10}, not all zero.  Half the cases
     route a native circuit on a random device
     and optimize for it, so that the guard reverts passes and the
     templates respect couplings, and half of those hold a circuit
     whose second sweep must run in full ([with_late_pass_case]). *)
  let optimize_preserves_unitary =
    {
      name = "optimize-preserves-unitary";
      doc =
        "optimize preserves the exact unitary, never raises cost and \
         reaches a fixed point";
      paper = "Sec. 4 (cost-driven optimization)";
      gen =
        (fun cfg st ->
          let weight = Gen.choose [ 0.0; 0.25; 0.5; 1.0; 10.0 ] in
          let rec any_linear st =
            let t = weight st in
            let cnot = weight st in
            let gate = weight st in
            if t = 0.0 && cnot = 0.0 && gate = 0.0 then any_linear st
            else Cost.Linear { t; cnot; gate }
          in
          let cost =
            if Random.State.bool st then
              Gen.choose [ Cost.eqn2; Cost.t_weighted ] st
            else any_linear st
          in
          let rules =
            Gen.choose [ Rewrite.default_selection; Rewrite.empty_selection ] st
          in
          if Random.State.bool st then
            let d = dev_gen ~cap:6 cfg st in
            let c = circuit_on_device ~gate:Gen.native_gate cfg d st in
            let c =
              if Random.State.bool st then with_late_pass_case d c st else c
            in
            Optimize_case { circuit = c; device = Some d; cost; rules }
          else
            let c =
              Gen.circuit ~max_qubits:(min 6 cfg.max_qubits)
                ~max_gates:cfg.max_gates st
            in
            Optimize_case { circuit = c; device = None; cost; rules });
      check =
        (function
        | Optimize_case { circuit; device; cost; rules } ->
          let c =
            match device with
            | Some d -> Route.route_circuit d circuit
            | None -> circuit
          in
          let c' = Optimize.optimize ?device ~cost ~rules c in
          let cost_before = Cost.evaluate cost c in
          let cost_after = Cost.evaluate cost c' in
          let again = Optimize.optimize_budgeted ?device ~cost ~rules c' in
          check_all
            [
              ( (fun () -> Sim.equivalent ~up_to_phase:false c c'),
                fun () -> "optimize changed the unitary" );
              ( (fun () -> cost_after <= cost_before +. 1e-9),
                fun () ->
                  Printf.sprintf "cost increased: %g -> %g" cost_before
                    cost_after );
              ( (fun () ->
                  again.iterations = 0 && Circuit.equal again.circuit c'),
                fun () ->
                  Printf.sprintf
                    "output is not a fixed point: optimizing it again kept %d \
                     sweeps"
                    again.iterations );
              ( (fun () ->
                  Cost.evaluate cost (sweep_once ?device ~cost ~rules c')
                  >= cost_after),
                fun () -> "output is not a fixed point: one sweep lowers its cost"
              );
            ]
        | _ -> wrong_case "optimize-preserves-unitary");
    }

  (* 4. Routing produces a device-legal circuit (certified by the
     static checker, not by the router's own predicate) with the same
     unitary — Sec. 4, Figs. 4-6. *)
  let route_legal =
    {
      name = "route-legal";
      doc = "routed circuits are Lint-certified device-legal and equivalent";
      paper = "Sec. 4 (CTR rerouting)";
      gen =
        (fun cfg st ->
          let d = dev_gen ~cap:8 cfg st in
          let c = circuit_on_device ~gate:Gen.native_gate cfg d st in
          Circuit_case { circuit = c; device = Some d; budget = None });
      check =
        (function
        | Circuit_case { circuit = c; device = Some d; _ } ->
          let routed = Route.route_circuit d c in
          let widened = Circuit.widen c (Device.n_qubits d) in
          check_all
            [
              ( (fun () -> Lint.is_device_legal d routed),
                fun () ->
                  String.concat "; "
                    (List.map Lint.finding_to_string
                       (Lint.device_legal d routed)) );
              ( (fun () -> Qmdd.equivalent ~up_to_phase:false widened routed),
                fun () -> "routing changed the unitary" );
            ]
        | _ -> wrong_case "route-legal");
    }

  (* 5. Budgeted routing degrades gracefully with exact accounting:
     emitted SWAPs never exceed the budget, every illegal CNOT left in
     the output is one the budget refused, and the unitary survives
     whatever the budget — for all three routers. *)
  let route_budget_accounting =
    {
      name = "route-budget-accounting";
      doc = "swap budgets: exact accounting and unitary preservation";
      paper = "Sec. 4 + graceful degradation";
      gen =
        (fun cfg st ->
          let d = dev_gen ~cap:8 cfg st in
          let c = circuit_on_device ~gate:Gen.native_gate cfg d st in
          let budget = Gen.int 5 st in
          Circuit_case { circuit = c; device = Some d; budget = Some budget });
      check =
        (function
        | Circuit_case { circuit = c; device = Some d; budget = Some b } ->
          let widened = Circuit.widen c (Device.n_qubits d) in
          let routers =
            [
              ("ctr", fun stats -> Route.route_circuit_swaps ~stats ~swap_budget:b d c);
              ( "weighted",
                fun stats ->
                  Route.route_circuit_swaps ~stats ~swap_budget:b
                    ~weight:(fun _ _ -> 1.0)
                    d c );
              ( "tracking",
                fun stats ->
                  Route.route_circuit_tracking ~stats ~swap_budget:b d c );
            ]
          in
          let check_router (rname, route) =
            let stats = Route.new_stats () in
            let routed = route stats in
            check_all
              [
                ( (fun () -> stats.Route.swaps_inserted <= b),
                  fun () ->
                    Printf.sprintf "%s: swaps_inserted %d > budget %d" rname
                      stats.Route.swaps_inserted b );
                ( (fun () -> count_swaps routed = stats.Route.swaps_inserted),
                  fun () ->
                    Printf.sprintf "%s: emitted %d swaps, reported %d" rname
                      (count_swaps routed) stats.Route.swaps_inserted );
                ( (fun () -> illegal_cnots d routed = stats.Route.unrouted_cnots),
                  fun () ->
                    Printf.sprintf
                      "%s: %d illegal CNOTs in output, %d reported unrouted"
                      rname (illegal_cnots d routed)
                      stats.Route.unrouted_cnots );
                ( (fun () -> Qmdd.equivalent ~up_to_phase:false widened routed),
                  fun () -> Printf.sprintf "%s: unitary changed" rname );
                ( (fun () ->
                    stats.Route.unrouted_cnots > 0
                    || Lint.is_device_legal d (Route.expand_swaps d routed)),
                  fun () ->
                    Printf.sprintf "%s: clean route is not device-legal" rname
                );
              ]
          in
          let rec go = function
            | [] -> Pass
            | r :: rest -> (
              match check_router r with Pass -> go rest | fail -> fail)
          in
          go routers
        | _ -> wrong_case "route-budget-accounting");
    }

  (* 6/7. Emission is a fixpoint of emit-parse: parsing what we print
     and printing again reproduces the bytes, for both text formats. *)
  let qasm_gate ~n st =
    (* OpenQASM 2.0 has no generalized-Toffoli primitive. *)
    match Gen.gate ~n st with
    | Gate.Mct { controls = c1 :: c2 :: _; target } ->
      Gate.Toffoli { c1; c2; target }
    | Gate.Mct { controls = [ control ]; target } ->
      Gate.Cnot { control; target }
    | Gate.Mct { controls = []; target } -> Gate.X target
    | g -> g

  let roundtrip_property ~name ~paper ~gate ~emit ~parse =
    {
      name;
      doc = Printf.sprintf "%s emit -> parse -> emit is a fixpoint" name;
      paper;
      gen =
        (fun cfg st ->
          let c =
            Gen.circuit ~gate ~max_qubits:cfg.max_qubits
              ~max_gates:cfg.max_gates st
          in
          Circuit_case { circuit = c; device = None; budget = None });
      check =
        (function
        | Circuit_case { circuit = c; _ } -> (
          let s1 = emit c in
          match parse s1 with
          | exception e ->
            failf "emitted text does not parse back: %s" (Printexc.to_string e)
          | c2 ->
            check_all
              [
                ( (fun () -> Circuit.n_qubits c2 = Circuit.n_qubits c),
                  fun () ->
                    Printf.sprintf "width changed: %d -> %d"
                      (Circuit.n_qubits c) (Circuit.n_qubits c2) );
                ( (fun () -> Qmdd.equivalent ~up_to_phase:false c c2),
                  fun () -> "parsed circuit has a different unitary" );
                ( (fun () -> String.equal (emit c2) s1),
                  fun () -> "emit o parse is not a fixpoint" );
              ])
        | _ -> wrong_case name);
    }

  let qasm_roundtrip =
    roundtrip_property ~name:"qasm-roundtrip"
      ~paper:"Sec. 2 (OpenQASM artifact)" ~gate:qasm_gate
      ~emit:(fun c -> Qformats.Qasm.to_string c)
      ~parse:Qformats.Qasm.of_string

  let qc_roundtrip =
    roundtrip_property ~name:"qc-roundtrip" ~paper:"Sec. 6 (benchmark formats)"
      ~gate:Gen.gate ~emit:Qformats.Qc.to_string
      ~parse:(fun s -> (Qformats.Qc.of_string s).Qformats.Qc.circuit)

  (* 8. Placement metamorphism: relabeling the circuit through a
     permutation and scoring under the identity equals scoring the
     original under that permutation; and the chosen placement is a
     valid permutation never worse than identity. *)
  let place_invariance =
    {
      name = "place-invariance";
      doc = "placement estimates are permutation-invariant; choose is sound";
      paper = "Sec. 6 (future work: qubit placement)";
      gen =
        (fun cfg st ->
          let d = dev_gen ~cap:8 cfg st in
          let c = circuit_on_device ~gate:Gen.native_gate cfg d st in
          Circuit_case { circuit = c; device = Some d; budget = None });
      check =
        (function
        | Circuit_case { circuit = c; device = Some d; _ } ->
          let n = Device.n_qubits d in
          let c = Circuit.widen c n in
          let identity = Place.identity d in
          let perms =
            [
              ("reverse", Array.init n (fun q -> n - 1 - q));
              ("rotate", Array.init n (fun q -> (q + 1) mod n));
            ]
          in
          let chosen = Place.choose d c in
          let invariant (pname, p) =
            let direct = Place.estimate d c p in
            let relabeled = Place.estimate d (Place.apply p c) identity in
            ( (fun () -> direct = relabeled),
              fun () ->
                Printf.sprintf
                  "%s: estimate %d under permutation, %d after relabeling"
                  pname direct relabeled )
          in
          check_all
            (List.map invariant perms
            @ [
                ( (fun () -> Place.is_valid d chosen),
                  fun () -> "choose returned a non-permutation" );
                ( (fun () ->
                    Place.estimate d c chosen
                    <= Place.estimate d c identity),
                  fun () -> "choose is worse than the identity placement" );
              ])
        | _ -> wrong_case "place-invariance");
    }

  (* 9. The classical front-end: every ESOP form of a random PLA
     computes the same switching function, and the reversible cascade
     realizes it gate-for-gate on the simulator. *)
  let esop_cascade =
    {
      name = "esop-cascade";
      doc = "ESOP forms and the reversible cascade realize the PLA";
      paper = "Sec. 2.3 (ESOP front-end)";
      gen =
        (fun cfg st ->
          let pla = Gen.pla ~max_inputs:(min 4 cfg.max_qubits) st in
          Function_case { pla });
      check =
        (function
        | Function_case { pla } ->
          let n_in = pla.Qformats.Pla.n_inputs in
          let inputs = List.init n_in Fun.id in
          let cascade = Cascade.of_pla pla in
          let check_output j =
            let table = Qformats.Pla.truth_table pla ~output:j in
            let esop = Esop.of_pla pla ~output:j in
            let minimized = Esop.minimize esop in
            let pprm = Esop.pprm table in
            let realized =
              Sim.truth_table cascade ~inputs ~output:(n_in + j)
            in
            check_all
              [
                ( (fun () -> Esop.truth_table esop = table),
                  fun () -> Printf.sprintf "output %d: of_pla differs" j );
                ( (fun () -> Esop.truth_table minimized = table),
                  fun () ->
                    Printf.sprintf "output %d: minimize changed the function" j
                );
                ( (fun () ->
                    Esop.cube_count minimized
                    <= Esop.cube_count esop),
                  fun () ->
                    Printf.sprintf "output %d: minimize grew the cube count" j
                );
                ( (fun () -> Esop.truth_table pprm = table),
                  fun () -> Printf.sprintf "output %d: PPRM differs" j );
                ( (fun () -> realized = table),
                  fun () ->
                    Printf.sprintf "output %d: cascade truth table differs" j
                );
              ]
          in
          let rec go j =
            if j >= pla.Qformats.Pla.n_outputs then Pass
            else
              match check_output j with Pass -> go (j + 1) | fail -> fail
          in
          go 0
        | _ -> wrong_case "esop-cascade");
    }

  (* 10. Crash totality: byte-mutate a valid source file; whatever
     comes out, [parse_file_checked] + [compile_checked] return
     structured results and never raise. *)
  let mutation_pool = "0123456789qQx[](),;.*-+/ \npi#tTeE"

  let compile_checked_total =
    {
      name = "compile-checked-total";
      doc = "compile_checked is total on byte-mutated source files";
      paper = "Sec. 5 (robustness of the pipeline)";
      gen =
        (fun cfg st ->
          let ext = Gen.choose [ ".qasm"; ".qc" ] st in
          let gate = if ext = ".qasm" then qasm_gate else Gen.gate in
          let c =
            Gen.circuit ~gate ~max_qubits:(min 5 cfg.max_qubits)
              ~max_gates:cfg.max_gates st
          in
          let text =
            if ext = ".qasm" then Qformats.Qasm.to_string c
            else Qformats.Qc.to_string c
          in
          let bytes = Bytes.of_string text in
          let mutations = 1 + Gen.int 8 st in
          for _ = 1 to mutations do
            if Bytes.length bytes > 0 then
              Bytes.set bytes
                (Gen.int (Bytes.length bytes) st)
                mutation_pool.[Gen.int (String.length mutation_pool) st]
          done;
          Source_case { ext; text = Bytes.to_string bytes });
      check =
        (function
        | Source_case { ext; text } -> (
          let path = Filename.temp_file "qsynth-fuzz" ext in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc text);
              let options =
                {
                  (Compiler.default_options ~device:Device.Ibm.ibmqx4) with
                  Compiler.verification =
                    Compiler.Fallback
                      { node_budget = Some 200_000; max_sim_qubits = 6 };
                  Compiler.budgets =
                    {
                      Compiler.deadline_seconds = Some 2.0;
                      max_optimize_iterations = Some 8;
                      swap_budget = None;
                    };
                }
              in
              match Compiler.parse_file_checked path with
              | exception e ->
                failf "parse_file_checked raised %s" (Printexc.to_string e)
              | Error _ -> Pass
              | Ok input -> (
                match Compiler.compile_checked options input with
                | exception e ->
                  failf "compile_checked raised %s" (Printexc.to_string e)
                | Ok _ -> Pass
                | Error [] -> Fail "compile_checked failed with no diagnostics"
                | Error _ -> Pass)))
        | _ -> wrong_case "compile-checked-total");
    }

  (* 11. Soundness of the abstract interpreter (lib/absint): every fact
     it proves about a random circuit — per-gate basis states, dead and
     demoted gates, the final entanglement partition — must hold in the
     dense simulator on the state prepared from |0...0>.  The analysis
     is allowed to be imprecise (answer Unknown), never wrong. *)
  let absint_sound =
    let eps = 1e-6 in
    let bit n q idx = (idx lsr (n - 1 - q)) land 1 in
    (* psi is proportional to (alpha|0> + beta|1>)_q (x) rest: the
       cross-multiplication test is insensitive to global phase,
       matching the interpreter's ray semantics for Known states. *)
    let holds_on_wire ~n psi q s =
      let alpha, beta = Absint.Basis.amplitudes s in
      let step = 1 lsl (n - 1 - q) in
      let ok = ref true in
      Array.iteri
        (fun idx v ->
          if bit n q idx = 0 then
            let lhs = Mathkit.Cx.mul beta v
            and rhs = Mathkit.Cx.mul alpha psi.(idx + step) in
            if Mathkit.Cx.norm (Mathkit.Cx.sub lhs rhs) > eps then ok := false)
        psi;
      !ok
    in
    let known_states_hold ~n psi after =
      let bad = ref None in
      Array.iteri
        (fun q v ->
          match v with
          | Absint.Basis.Known s ->
            if !bad = None && not (holds_on_wire ~n psi q s) then
              bad := Some (q, s)
          | Absint.Basis.Unknown | Absint.Basis.Bot -> ())
        after;
      !bad
    in
    (* A claimed-separable class must give a rank-1 state matrix
       M[class bits][rest bits]: pivot on the largest entry and check
       every 2x2 minor against it. *)
    let class_separable ~n psi ws =
      let k = List.length ws in
      if k = 0 || k = n then true
      else begin
        let rest =
          List.filter (fun q -> not (List.mem q ws)) (List.init n Fun.id)
        in
        let dim_a = 1 lsl k and dim_b = 1 lsl (n - k) in
        let index a b =
          let idx = ref 0 in
          List.iteri
            (fun i q ->
              if (a lsr (k - 1 - i)) land 1 = 1 then
                idx := !idx lor (1 lsl (n - 1 - q)))
            ws;
          List.iteri
            (fun i q ->
              if (b lsr (n - k - 1 - i)) land 1 = 1 then
                idx := !idx lor (1 lsl (n - 1 - q)))
            rest;
          !idx
        in
        let m a b = psi.(index a b) in
        let pa = ref 0 and pb = ref 0 and best = ref 0.0 in
        for a = 0 to dim_a - 1 do
          for b = 0 to dim_b - 1 do
            let w = Mathkit.Cx.norm (m a b) in
            if w > !best then begin
              best := w;
              pa := a;
              pb := b
            end
          done
        done;
        if !best <= eps then true
        else begin
          let ok = ref true in
          let pivot = m !pa !pb in
          for a = 0 to dim_a - 1 do
            for b = 0 to dim_b - 1 do
              let minor =
                Mathkit.Cx.sub
                  (Mathkit.Cx.mul (m a b) pivot)
                  (Mathkit.Cx.mul (m a !pb) (m !pa b))
              in
              if Mathkit.Cx.norm minor > eps then ok := false
            done
          done;
          !ok
        end
      end
    in
    let max_diff a b =
      let d = ref 0.0 in
      Array.iteri
        (fun i v -> d := Float.max !d (Mathkit.Cx.norm (Mathkit.Cx.sub v b.(i))))
        a;
      !d
    in
    {
      name = "absint-sound";
      doc = "every Absint fact (state, dead, demoted, partition) holds in Sim";
      paper = "Sec. 4 (known-state folding soundness)";
      gen =
        (fun cfg st ->
          let c =
            Gen.circuit ~max_qubits:(min 6 cfg.max_qubits)
              ~max_gates:cfg.max_gates st
          in
          Circuit_case { circuit = c; device = None; budget = None });
      check =
        (function
        | Circuit_case { circuit = c; _ } ->
          let n = Circuit.n_qubits c in
          let r = Absint.analyze c in
          let psi = ref (Sim.basis_state ~n 0) in
          let failure = ref None in
          let fail fmt =
            Printf.ksprintf
              (fun s -> if !failure = None then failure := Some s)
              fmt
          in
          List.iter
            (fun (row : Absint.row) ->
              if !failure = None then begin
                let before = !psi in
                let after_psi = Sim.apply_gate ~n row.Absint.gate before in
                (match row.Absint.fact with
                | Some (Absint.Dead reason) ->
                  let moved = max_diff after_psi before in
                  if moved > eps then
                    fail
                      "gate %d (%s) claimed dead (%s) but moved the state by \
                       %g"
                      row.Absint.index
                      (Gate.to_string row.Absint.gate)
                      reason moved
                | Some (Absint.Demoted (body, reason)) ->
                  let via_body =
                    List.fold_left
                      (fun acc g -> Sim.apply_gate ~n g acc)
                      before body
                  in
                  let diff = max_diff after_psi via_body in
                  if diff > eps then
                    fail
                      "gate %d (%s) claimed to act as [%s] (%s) but differs \
                       by %g"
                      row.Absint.index
                      (Gate.to_string row.Absint.gate)
                      (String.concat "; " (List.map Gate.to_string body))
                      reason diff
                | None -> ());
                psi := after_psi;
                match known_states_hold ~n after_psi row.Absint.after with
                | Some (q, s) ->
                  fail "after gate %d (%s): q%d is not in the claimed state %s"
                    row.Absint.index
                    (Gate.to_string row.Absint.gate)
                    q
                    (Absint.Basis.state_to_string s)
                | None -> ()
              end)
            r.Absint.rows;
          if !failure = None then
            List.iter
              (fun ws ->
                if not (class_separable ~n !psi ws) then
                  fail "final partition class %s is not separable"
                    (Absint.class_to_string ws))
              r.Absint.classes;
          (match !failure with None -> Pass | Some msg -> Fail msg)
        | _ -> wrong_case "absint-sound");
    }

  (* Shared by the two serve properties (serve-protocol, serve-chaos).
     A response is a valid envelope iff it parses as JSON, claims
     protocol qsynth-serve/v1, carries code 0/123/124/125 and has [ok]
     true exactly when the code is 0. *)
  let serve_validate_envelope frame response =
    let module J = Trace.Json in
    match J.of_string response with
    | Error msg ->
      Some
        (Printf.sprintf "unparseable response %S to frame %S: %s" response
           frame msg)
    | Ok j -> (
      let code =
        match J.member "code" j with Some (J.Int c) -> Some c | _ -> None
      in
      let ok =
        match J.member "ok" j with Some (J.Bool b) -> Some b | _ -> None
      in
      let proto =
        match J.member "protocol" j with
        | Some (J.String s) -> Some s
        | _ -> None
      in
      match (proto, code, ok) with
      | Some "qsynth-serve/v1", Some code, Some ok ->
        if not (List.mem code [ 0; 123; 124; 125 ]) then
          Some (Printf.sprintf "response to %S has code %d" frame code)
        else if ok <> (code = 0) then
          Some
            (Printf.sprintf "response to %S: ok=%b but code=%d" frame ok
               code)
        else None
      | _ ->
        Some
          (Printf.sprintf "response to %S is not a qsynth-serve/v1 envelope"
             frame))

  (* One random qsynth-serve/v1 frame: valid compiles and batches,
     stats/ping/shutdown probes, and deliberately malformed junk.
     Shared by the serve-protocol and serve-chaos generators. *)
  let serve_frame cfg st =
    let module J = Trace.Json in
    let device st =
      Gen.choose [ "ibmqx4"; "ibmqx2"; "ibmq_16"; "perovskite" ] st
    in
    let source st =
      let c =
        Gen.circuit ~gate:qasm_gate ~max_qubits:(min 4 cfg.max_qubits)
          ~max_gates:(min 10 cfg.max_gates) st
      in
      Qformats.Qasm.to_string c
    in
    let options st =
      match Gen.int 5 st with
      | 0 -> []
      | 1 -> [ ("verification", J.String "skip") ]
      | 2 ->
        [
          ("verification", J.String "qmdd"); ("node_budget", J.Int 200_000);
        ]
      | 3 -> [ ("deadline_seconds", J.Float 2.0) ]
      | _ -> [ ("not_an_option", J.Bool true) ]
    in
    let compile_obj st =
      [
        ("op", J.String "compile");
        ("source", J.String (source st));
        ("device", J.String (device st));
        ("options", J.Obj (options st));
      ]
    in
    match Gen.int 12 st with
    | 0 -> {|{"op":"ping"}|}
    | 1 -> {|{"op":"stats"}|}
    | 2 -> {|{"op":"shutdown"}|}
    | 3 -> J.to_string (J.Obj [ ("op", J.String "transmogrify") ])
    | 4 ->
      (* structurally broken on purpose *)
      Gen.choose
        [
          "not json at all";
          "{\"op\":";
          "[1,2,3]";
          "{\"op\":42}";
          "{\"source\":\"x\"}";
          {|{"op":"compile","source":17,"device":"ibmqx4"}|};
          {|{"op":"compile","source":"","device":"nosuch"}|};
          {|{"op":"batch","requests":{}}|};
        ]
        st
    | 5 ->
      J.to_string
        (J.Obj
           [
             ("op", J.String "batch");
             ( "requests",
               J.List
                 (List.init (Gen.int 3 st) (fun _ ->
                      J.Obj (List.tl (compile_obj st)))) );
           ])
    | _ -> J.to_string (J.Obj (compile_obj st))

  (* 12. Protocol totality and determinism of the serve daemon
     (lib/serve).  A case is a stream of qsynth-serve/v1 frames, one
     per line — valid compiles, batches, stats/ping/shutdown probes,
     and deliberately malformed junk.  Phase 1 drives the in-process
     protocol core twice: every frame must yield exactly one valid
     envelope (code 0/123/124/125, [ok] iff code 0) and the two runs
     must agree byte for byte once the volatile "seconds" field is
     dropped.  Phase 2 replays the same frames through a real
     Unix-socket server with two concurrent clients: every response
     must still be a valid envelope, one per frame. *)
  let serve_protocol =
    let module J = Trace.Json in
    let strip_seconds = function
      | J.Obj fields ->
        J.Obj (List.filter (fun (k, _) -> k <> "seconds") fields)
      | other -> other
    in
    let validate_envelope = serve_validate_envelope in
    let frames_of_text text =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
    in
    (* Small capacity so generated streams actually exercise LRU
       eviction, not just hits and misses. *)
    let fresh_daemon () = Serve.create ~cache_capacity:4 () in
    let run_in_process frames =
      let t = fresh_daemon () in
      List.map (fun f -> (f, Serve.handle_line t f)) frames
    in
    let phase_in_process frames =
      let first = run_in_process frames and second = run_in_process frames in
      let rec go = function
        | [], [] -> Pass
        | (frame, r1) :: rest1, (_, r2) :: rest2 -> (
          match validate_envelope frame r1 with
          | Some msg -> Fail msg
          | None ->
            let canon r =
              match J.of_string r with
              | Ok j -> J.to_string (strip_seconds j)
              | Error _ -> r
            in
            if canon r1 <> canon r2 then
              failf "nondeterministic response to frame %S: %S vs %S" frame
                r1 r2
            else go (rest1, rest2))
        | _ -> Fail "in-process runs answered different frame counts"
      in
      go (first, second)
    in
    let phase_loopback frames =
      let path = Filename.temp_file "qsynth-serve" ".sock" in
      let address = Serve.Unix_socket path in
      let daemon = fresh_daemon () in
      let server = Thread.create (fun () -> Serve.serve daemon address) () in
      let rec connect retries =
        match Serve.Client.connect address with
        | conn -> Some conn
        | exception _ when retries > 0 ->
          Thread.delay 0.01;
          connect (retries - 1)
        | exception _ -> None
      in
      Fun.protect
        ~finally:(fun () ->
          (* Stop the accept loop no matter how the clients fared, then
             reap the server thread and the socket path. *)
          (match connect 10 with
          | Some conn ->
            (try ignore (Serve.Client.request conn {|{"op":"shutdown"}|})
             with _ -> ());
            Serve.Client.close conn
          | None -> ());
          Thread.join server;
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let half = List.length frames / 2 in
          let split i = List.filteri (fun j _ -> (j < half) = i) frames in
          let results = [| Error "client did not run"; Error "client did not run" |] in
          let client idx fs () =
            results.(idx) <-
              (match connect 100 with
              | None -> Error "could not connect to loopback server"
              | Some conn ->
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close conn)
                  (fun () ->
                    try Ok (List.map (fun f -> (f, Serve.Client.request conn f)) fs)
                    with e ->
                      Error
                        (Printf.sprintf "client raised %s"
                           (Printexc.to_string e))))
          in
          let t1 = Thread.create (client 0 (split true)) () in
          let t2 = Thread.create (client 1 (split false)) () in
          Thread.join t1;
          Thread.join t2;
          let check_client = function
            | Error msg -> Fail msg
            | Ok responses ->
              let rec go = function
                | [] -> Pass
                | (frame, r) :: rest -> (
                  match validate_envelope frame r with
                  | Some msg -> Fail msg
                  | None -> go rest)
              in
              go responses
          in
          match check_client results.(0) with
          | Fail _ as f -> f
          | Pass -> check_client results.(1))
    in
    {
      name = "serve-protocol";
      doc = "the serve daemon answers every frame with one valid envelope";
      paper = "Sec. 5 (robustness of the pipeline)";
      gen =
        (fun cfg st ->
          let n = 1 + Gen.int 8 st in
          let frames = List.init n (fun _ -> serve_frame cfg st) in
          Source_case { ext = ".serve"; text = String.concat "\n" frames });
      check =
        (function
        | Source_case { ext = ".serve"; text } -> (
          let frames = frames_of_text text in
          match phase_in_process frames with
          | Fail _ as f -> f
          | Pass ->
            (* A mid-stream shutdown stops the accept loop while the
               other client still awaits answers; the loopback phase
               keeps the server up for the whole stream and stops it
               itself, so shutdown frames are phase-1-only. *)
            phase_loopback
              (List.filter (fun f -> f <> {|{"op":"shutdown"}|}) frames))
        | _ -> wrong_case "serve-protocol");
    }

  (* 13. Daemon liveness under socket-layer chaos (lib/serve +
     Faultinject.Socket).  A case is a chaos plan, one transport event
     per line: well-behaved requests, torn frames, disconnects before
     the response, sub-deadline stalls, and concurrent connection
     bursts, carrying the same frame mix serve-protocol uses — while
     every third compile inside the daemon raises mid-pipeline.  The
     check replays the plan against a live loopback daemon with tight
     budgets; every response that arrives must be a valid envelope,
     and after the plan the daemon must still answer ping, stats and a
     clean compile with code 0 — the accept loop never dies. *)
  let serve_chaos =
    let module S = Faultinject.Socket in
    let connect path =
      let rec go retries =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> Some fd
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if retries = 0 then None
          else begin
            Thread.delay 0.01;
            go (retries - 1)
          end
      in
      go 100
    in
    (* Chaos clients get torn down mid-write on purpose, so a failed
       send is an expected outcome, not an error: [false] just means
       the rest of the event is moot. *)
    let send_all fd s =
      let b = Bytes.of_string s in
      let len = Bytes.length b in
      let rec go off =
        if off >= len then true
        else
          match Unix.write fd b off (len - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error _ -> false
      in
      go 0
    in
    (* Bounded raw-fd line read: [None] on EOF, junk-free timeout, or
       socket error — the caller decides whether silence is legal. *)
    let recv_line fd ~timeout =
      let deadline = Unix.gettimeofday () +. timeout in
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 512 in
      let rec go () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> None
            | n -> (
              Buffer.add_subbytes buf chunk 0 n;
              let s = Buffer.contents buf in
              match String.index_opt s '\n' with
              | Some i -> Some (String.sub s 0 i)
              | None -> go ())
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error _ -> None)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()
    in
    let run_chaos plan =
      let path = Filename.temp_file "qsynth-serve" ".chaos.sock" in
      let address = Serve.Unix_socket path in
      (* Every third compile blows up mid-pipeline while the transport
         is being mistreated, so pipeline and socket faults land
         together.  The flag lets the post-chaos probes compile
         cleanly.  Both are atomic: compiles run on several domains at
         once. *)
      let chaos_over = Atomic.make false in
      let calls = Atomic.make 0 in
      let inject () =
        if not (Atomic.get chaos_over) then
          if (Atomic.fetch_and_add calls 1 + 1) mod 3 = 0 then
            raise (Faultinject.Injected "serve-chaos")
      in
      let daemon =
        Serve.create ~cache_capacity:8 ~max_cache_bytes:(512 * 1024)
          ~max_deadline_seconds:5.0 ~watchdog_grace_seconds:2.0
          ~read_timeout_seconds:0.3 ~max_frame_bytes:65536 ~max_workers:3
          ~max_pending:3 ~inject ()
      in
      let server_error = ref None in
      let server =
        Thread.create
          (fun () ->
            try Serve.serve daemon address
            with e -> server_error := Some (Printexc.to_string e))
          ()
      in
      let failures = ref [] in
      let failures_lock = Mutex.create () in
      let record msg =
        Mutex.lock failures_lock;
        failures := msg :: !failures;
        Mutex.unlock failures_lock
      in
      let with_conn what use =
        match connect path with
        | None -> record (what ^ ": could not connect")
        | Some fd ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> use fd)
      in
      (* Any answer must be a valid envelope; an [overloaded] shed is
         an answer.  The 8s ceiling sits above the daemon's worst case
         (5s deadline + 2s watchdog grace). *)
      let expect_valid what frame fd =
        match recv_line fd ~timeout:8.0 with
        | None ->
          record (Printf.sprintf "%s: no response to frame %S" what frame)
        | Some line -> (
          match serve_validate_envelope frame line with
          | Some msg -> record (what ^ ": " ^ msg)
          | None -> ())
      in
      let run_event = function
        | S.Request { fault = None; frame } ->
          with_conn "plain request" (fun fd ->
              if send_all fd (frame ^ "\n") then
                expect_valid "plain request" frame fd)
        | S.Request { fault = Some (S.Torn_frame k); frame } ->
          with_conn "torn frame" (fun fd ->
              let k = min k (String.length frame) in
              ignore (send_all fd (String.sub frame 0 k)))
        | S.Request { fault = Some S.Disconnect_before_read; frame } ->
          with_conn "disconnect" (fun fd ->
              ignore (send_all fd (frame ^ "\n")))
        | S.Request { fault = Some (S.Stalled_write ms); frame } ->
          with_conn "stalled write" (fun fd ->
              let half = String.length frame / 2 in
              if send_all fd (String.sub frame 0 half) then begin
                Thread.delay (float_of_int ms /. 1000.);
                if
                  send_all fd
                    (String.sub frame half (String.length frame - half)
                    ^ "\n")
                then expect_valid "stalled write" frame fd
              end)
        | S.Request { fault = Some (S.Stalled_read ms); frame } ->
          with_conn "stalled read" (fun fd ->
              if send_all fd (frame ^ "\n") then begin
                Thread.delay (float_of_int ms /. 1000.);
                expect_valid "stalled read" frame fd
              end)
        | S.Burst n ->
          (* n pings race the admission queue; each must get a valid
             envelope (overloaded included) or a clean close. *)
          let one i () =
            with_conn
              (Printf.sprintf "burst client %d" i)
              (fun fd ->
                let frame = {|{"op":"ping"}|} in
                if send_all fd (frame ^ "\n") then
                  match recv_line fd ~timeout:4.0 with
                  | None -> ()
                  | Some line -> (
                    match serve_validate_envelope frame line with
                    | Some msg ->
                      record (Printf.sprintf "burst client %d: %s" i msg)
                    | None -> ()))
          in
          let threads = List.init n (fun i -> Thread.create (one i) ()) in
          List.iter Thread.join threads
      in
      (* A shed ([overloaded]) answer is legal while the daemon drains
         the chaos backlog; liveness means the request is eventually
         admitted, so probes retry through sheds. *)
      let is_shed line =
        let module J = Trace.Json in
        match J.of_string line with
        | Ok j -> (
          match J.member "status" j with
          | Some (J.String "overloaded") -> true
          | _ -> false)
        | Error _ -> false
      in
      let probe what frame =
        let rec attempt retries =
          let outcome = ref `Retry in
          with_conn what (fun fd ->
              (* A failed send is the shed race: the daemon wrote its
                 overloaded line and closed before our bytes landed. *)
              if not (send_all fd (frame ^ "\n")) then outcome := `Retry
              else
                match recv_line fd ~timeout:8.0 with
                | None ->
                  outcome :=
                    `Failed (what ^ ": daemon did not answer after chaos")
                | Some line -> (
                  match serve_validate_envelope frame line with
                  | Some msg -> outcome := `Failed (what ^ ": " ^ msg)
                  | None ->
                    if is_shed line then outcome := `Retry
                    else
                      let module J = Trace.Json in
                      (match J.of_string line with
                      | Ok j -> (
                        match J.member "code" j with
                        | Some (J.Int 0) -> outcome := `Answered
                        | Some (J.Int c) ->
                          outcome :=
                            `Failed
                              (Printf.sprintf
                                 "%s: code %d after chaos, wanted 0" what c)
                        | _ ->
                          outcome :=
                            `Failed (what ^ ": no code after chaos"))
                      | Error _ -> outcome := `Answered)));
          match !outcome with
          | `Answered -> ()
          | `Failed msg -> record msg
          | `Retry ->
            if retries = 0 then
              record (what ^ ": still shed after the chaos backlog drained")
            else begin
              Thread.delay 0.05;
              attempt (retries - 1)
            end
        in
        attempt 100
      in
      Fun.protect
        ~finally:(fun () ->
          (* The shutdown itself can be shed while the backlog drains;
             keep asking until the daemon stops accepting or answers
             with anything but [overloaded], else the join below would
             wait forever on a daemon that never heard the request. *)
          let rec ask retries =
            match connect path with
            | None -> ()
            | Some fd ->
              (* [true] only on a definitive non-shed answer: a failed
                 send or a missing response means the daemon shed the
                 connection (it closes right after the overloaded
                 line), so the shutdown was never heard — ask again. *)
              let heard =
                if send_all fd "{\"op\":\"shutdown\"}\n" then
                  match recv_line fd ~timeout:4.0 with
                  | Some line -> not (is_shed line)
                  | None -> false
                else false
              in
              (try Unix.close fd with Unix.Unix_error _ -> ());
              if (not heard) && retries > 0 then begin
                Thread.delay 0.05;
                ask (retries - 1)
              end
          in
          ask 200;
          Thread.join server;
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          List.iter run_event plan;
          Atomic.set chaos_over true;
          (* Liveness after the storm: the daemon must still answer
             probes and a clean compile with code 0. *)
          probe "post-chaos ping" {|{"op":"ping"}|};
          probe "post-chaos stats" {|{"op":"stats"}|};
          probe "post-chaos compile"
            (let module J = Trace.Json in
             J.to_string
               (J.Obj
                  [
                    ("op", J.String "compile");
                    ( "source",
                      J.String
                        "OPENQASM 2.0;\n\
                         include \"qelib1.inc\";\n\
                         qreg q[2];\n\
                         cx q[0],q[1];\n" );
                    ("device", J.String "ibmqx4");
                  ]));
          (match !server_error with
          | Some e -> record ("server thread raised " ^ e)
          | None -> ());
          match !failures with
          | [] -> Pass
          | msgs -> Fail (String.concat "; " (List.rev msgs)))
    in
    {
      name = "serve-chaos";
      doc = "the serve daemon stays live through transport chaos";
      paper = "Sec. 5 (robustness of the pipeline)";
      gen =
        (fun cfg st ->
          let event st =
            if Gen.int 5 st = 0 then S.random_burst st
            else
              let frame =
                let f = serve_frame cfg st in
                (* A mid-plan shutdown would stop the daemon the rest
                   of the plan and the liveness probes still need. *)
                if f = {|{"op":"shutdown"}|} then {|{"op":"ping"}|} else f
              in
              S.random_event st ~frame
          in
          let n = 1 + Gen.int 6 st in
          Source_case
            {
              ext = ".chaos";
              text = S.plan_to_string (List.init n (fun _ -> event st));
            });
      check =
        (function
        | Source_case { ext = ".chaos"; text } -> (
          match S.plan_of_string text with
          | Error msg -> Fail msg
          | Ok plan -> run_chaos plan)
        | _ -> wrong_case "serve-chaos");
    }

  (* 14. The optimizer loop is sound: its result has the exact unitary
     of its input (no global-phase slack), never costs more, and differs
     from the rule-free loop's only when some rule fired — under Eqn. 2,
     gate-volume and T-weighted costs, since the per-pass guard is
     objective-dependent. *)
  let rewrite_sound =
    {
      name = "rewrite-sound";
      doc = "optimizer loop preserves the exact unitary under every objective";
      paper = "Sec. 4 (rule-driven optimization)";
      gen =
        (fun cfg st ->
          let c =
            Gen.circuit ~max_qubits:(min 6 cfg.max_qubits)
              ~max_gates:cfg.max_gates st
          in
          Circuit_case { circuit = c; device = None; budget = None });
      check =
        (function
        | Circuit_case { circuit = c; _ } ->
          let objective cost =
            let trace = Trace.create () in
            let c' = Optimize.optimize ~cost ~trace c in
            let fired =
              List.filter_map
                (fun (k, _) ->
                  match String.split_on_char '/' k with
                  | [ "rewrite"; ("reverted" | "oracle-rejected") ] -> None
                  | [ "rewrite"; rule ] -> Some rule
                  | _ -> None)
                (Trace.counter_totals trace)
            in
            let before = Cost.evaluate cost c
            and after = Cost.evaluate cost c' in
            check_all
              [
                ( (fun () -> Sim.equivalent ~up_to_phase:false c c'),
                  fun () ->
                    Printf.sprintf
                      "optimizer changed the unitary under %s (fired: %s)"
                      (Cost.to_string cost) (String.concat ", " fired) );
                ( (fun () -> after <= before +. 1e-9),
                  fun () ->
                    Printf.sprintf "cost (%s) increased: %g -> %g"
                      (Cost.to_string cost) before after );
                ( (fun () ->
                    fired <> []
                    || Circuit.gates c'
                       = Circuit.gates
                           (Optimize.optimize ~cost
                              ~rules:Rewrite.empty_selection c)),
                  fun () -> "no rule fired, yet the result differs from none" );
              ]
          in
          let rec first_failure = function
            | [] -> Pass
            | cost :: rest -> (
              match objective cost with
              | Pass -> first_failure rest
              | Fail _ as f -> f)
          in
          first_failure [ Cost.eqn2; Cost.gate_volume; Cost.t_weighted ]
        | _ -> wrong_case "rewrite-sound");
    }

  (* 15. The staged proof on big96 is sound and complete for what the
     report shows: a compile reads verified exactly when independent
     single-shot QMDD checks prove both reference = unoptimized and
     reference = optimized.  Half the cases lose gates to a truncation
     at decompose, route or expand-swaps.  Half open with a pair of
     equal gates, which pre-optimize cancels, so the proof cannot
     follow the lowering gate by gate and takes its one
     reference = native link. *)
  let staged_proof_sound =
    let device = Device.Ibm.big96 in
    let n = Device.n_qubits device in
    (* Two rows of four neighbouring qubits of big96's grid: next to
       the lowest-index qubits, which MCT lowering borrows, so the
       routed blocks, and with them a case, stay small. *)
    let window = [ 0; 1; 2; 3; 16; 17; 18; 19 ] in
    {
      name = "staged-proof-sound";
      doc = "big96 compiles verify iff reference = unoptimized = optimized";
      paper = "Sec. 4-5 (two-step lowering, QMDD verification)";
      gen =
        (fun _ st ->
          let gate () =
            match
              List.map (List.nth window)
                (Gen.distinct (2 + Gen.int 5 st) (List.length window) st)
            with
            | target :: controls -> Gate.mct controls target
            | [] -> assert false
          in
          let gates = List.init (1 + Gen.int 3 st) (fun _ -> gate ()) in
          let gates =
            if Random.State.bool st then List.hd gates :: gates else gates
          in
          let fault =
            if Random.State.bool st then
              let stage =
                Gen.choose Diagnostic.[ Decompose; Route; Expand_swaps ] st
              in
              Some
                ( { Faultinject.stage; fault = Faultinject.Truncate },
                  Gen.int 1000 st )
            else None
          in
          Fault_case { circuit = Circuit.make ~n gates; fault });
      check =
        (function
        | Fault_case { circuit; fault } -> (
          let inject =
            Option.map
              (fun (spec, seed) ->
                Faultinject.hook (Faultinject.create ~seed [ spec ]))
              fault
          in
          match
            Compiler.compile_checked ?inject
              (Compiler.default_options ~device)
              (Compiler.Quantum circuit)
          with
          | Error ds ->
            failf "compile failed: %s"
              (String.concat "; " (List.map Diagnostic.to_string ds))
          | Ok r ->
            let equal c =
              Qmdd.equivalent ~up_to_phase:false r.Compiler.reference c
            in
            let holds =
              equal r.Compiler.unoptimized && equal r.Compiler.optimized
            in
            if Compiler.verified r.Compiler.verification = holds then Pass
            else
              failf
                "compile reads %s, but reference = unoptimized = optimized \
                 is %b"
                (Compiler.verification_to_string r.Compiler.verification)
                holds)
        | _ -> wrong_case "staged-proof-sound");
    }

  (* 16. Total over every option, not only every source: under
     options drawn across every field, [compile_checked] returns, and
     tracing only observes.  The same compile with a recording trace
     gives the same diagnostics, or the same report and output circuit
     once the timings and the spans are left out. *)
  let compile_options_total =
    let untimed r =
      match Compiler.report_to_json r with
      | Trace.Json.Obj fields ->
        Trace.Json.Obj
          (List.filter
             (fun (k, _) ->
               not
                 (List.mem k
                    [ "elapsed_seconds"; "verification_seconds"; "passes" ]))
             fields)
      | j -> j
    in
    let outcome = function
      | Ok r ->
        Trace.Json.to_string (untimed r) ^ "\n" ^ Compiler.emit_qasm r
      | Error ds ->
        String.concat "\n"
          (List.map (fun d -> Trace.Json.to_string (Diagnostic.to_json d)) ds)
    in
    {
      name = "compile-options-total";
      doc =
        "compile_checked is total over drawn options; tracing never decides";
      paper = "Sec. 4-5 (every compile option)";
      gen =
        (fun cfg st ->
          let device = dev_gen ~cap:6 cfg st in
          let circuit = circuit_on_device cfg device st in
          let draw = Array.map (fun n -> Gen.int n st) draw_choices in
          while draw.(1) + draw.(2) + draw.(3) = 0 do
            for i = 1 to 3 do
              draw.(i) <- Gen.int draw_choices.(i) st
            done
          done;
          Options_case { circuit; device; draw });
      check =
        (function
        | Options_case { circuit; device; draw } -> (
          let options = options_of_draw device draw in
          let compile trace =
            match
              Compiler.compile_checked ~trace options (Compiler.Quantum circuit)
            with
            | result -> Ok (outcome result)
            | exception e -> Error (Printexc.to_string e)
          in
          match (compile Trace.disabled, compile (Trace.create ())) with
          | Error e, _ -> failf "compile_checked raised %s" e
          | _, Error e -> failf "compile_checked raised %s when traced" e
          | Ok plain, Ok traced ->
            if plain = traced then Pass
            else
              failf "tracing changed the result:\nuntraced: %s\ntraced: %s"
                plain traced)
        | _ -> wrong_case "compile-options-total");
    }

  let all =
    [
      compile_sim_equivalent;
      compile_qmdd_equivalent;
      optimize_preserves_unitary;
      route_legal;
      route_budget_accounting;
      qasm_roundtrip;
      qc_roundtrip;
      place_invariance;
      esop_cascade;
      compile_checked_total;
      absint_sound;
      serve_protocol;
      serve_chaos;
      rewrite_sound;
      staged_proof_sound;
      compile_options_total;
    ]

  let find name = List.find_opt (fun p -> p.name = name) all
end

(* --- shrinking --- *)

(* Remove the [size] gates starting at [start]. *)
let drop_chunk gates start size =
  List.filteri (fun i _ -> i < start || i >= start + size) gates

(* Halving sweep: all chunk removals of size len/2, then len/4, ...,
   then single elements — the ddmin schedule, big wins first. *)
let chunk_removals len =
  let rec sizes s acc = if s < 1 then List.rev acc else sizes (s / 2) (s :: acc) in
  match len with
  | 0 -> []
  | _ ->
    List.concat_map
      (fun size ->
        let rec starts s acc =
          if s >= len then List.rev acc else starts (s + size) (s :: acc)
        in
        List.map (fun start -> (start, size)) (starts 0 []))
      (sizes (len / 2) [])

let zero_angle = function
  | Gate.Rx (theta, q) when theta <> 0.0 -> Some (Gate.Rx (0.0, q))
  | Gate.Ry (theta, q) when theta <> 0.0 -> Some (Gate.Ry (0.0, q))
  | Gate.Rz (theta, q) when theta <> 0.0 -> Some (Gate.Rz (0.0, q))
  | Gate.Phase (theta, q) when theta <> 0.0 -> Some (Gate.Phase (0.0, q))
  | _ -> None

(* The support-compacted copy of a circuit, when that is narrower. *)
let compact_circuit c =
  let c', _ = Circuit.compact c c in
  if Circuit.is_empty c || Circuit.n_qubits c' = Circuit.n_qubits c then None
  else Some c'

let device_without d (a, b) =
  let couplings = List.filter (fun e -> e <> (a, b)) (Device.couplings d) in
  match
    Device.make ~name:(Device.name d) ~n_qubits:(Device.n_qubits d) couplings
  with
  | d' when Device.is_connected d' -> Some d'
  | _ -> None
  | exception Invalid_argument _ -> None

let device_narrowed d width =
  let w = max 2 width in
  if w >= Device.n_qubits d then None
  else
    let couplings =
      List.filter (fun (a, b) -> a < w && b < w) (Device.couplings d)
    in
    match Device.make ~name:(Device.name d) ~n_qubits:w couplings with
    | d' when Device.is_connected d' -> Some d'
    | _ -> None
    | exception Invalid_argument _ -> None

let circuit_candidates ~circuit ~device ~budget =
  let remake gates =
    match Circuit.make ~n:(Circuit.n_qubits circuit) gates with
    | c -> Some c
    | exception Invalid_argument _ -> None
  in
  let gates = Circuit.gates circuit in
  let len = List.length gates in
  let with_circuit c = Circuit_case { circuit = c; device; budget } in
  let drops =
    List.filter_map
      (fun (start, size) -> remake (drop_chunk gates start size))
      (chunk_removals len)
    |> List.map with_circuit
  in
  let narrower_device =
    match device with
    | Some d -> (
      match device_narrowed d (Circuit.n_qubits circuit) with
      | Some d' ->
        [ Circuit_case { circuit; device = Some d'; budget } ]
      | None -> [])
    | None -> []
  in
  let fewer_edges =
    match device with
    | Some d ->
      List.filter_map
        (fun e ->
          Option.map
            (fun d' -> Circuit_case { circuit; device = Some d'; budget })
            (device_without d e))
        (Device.couplings d)
    | None -> []
  in
  let compacted =
    match (compact_circuit circuit, device) with
    | Some c, None -> [ with_circuit c ]
    | Some c, Some _ -> [ Circuit_case { circuit = c; device; budget } ]
    | None, _ -> []
  in
  let zeroed =
    List.concat
      (List.mapi
         (fun i g ->
           match zero_angle g with
           | Some g' ->
             Option.to_list
               (remake (List.mapi (fun j h -> if i = j then g' else h) gates))
           | None -> [])
         gates)
    |> List.map with_circuit
  in
  drops @ narrower_device @ fewer_edges @ compacted @ zeroed

let function_candidates pla =
  let cubes = pla.Qformats.Pla.cubes in
  List.filter_map
    (fun (start, size) ->
      Some
        (Function_case
           { pla = { pla with Qformats.Pla.cubes = drop_chunk cubes start size } }))
    (chunk_removals (List.length cubes))

let source_candidates ext text =
  let lines = String.split_on_char '\n' text in
  List.map
    (fun (start, size) ->
      Source_case
        { ext; text = String.concat "\n" (drop_chunk lines start size) })
    (chunk_removals (List.length lines))

let candidates = function
  | Circuit_case { circuit; device; budget } ->
    circuit_candidates ~circuit ~device ~budget
  | Optimize_case o ->
    List.filter_map
      (function
        | Circuit_case { circuit; device; _ } ->
          Some (Optimize_case { o with circuit; device })
        | Optimize_case _ | Function_case _ | Source_case _ | Fault_case _
        | Options_case _ ->
          None)
      (circuit_candidates ~circuit:o.circuit ~device:o.device ~budget:None)
  | Function_case { pla } -> function_candidates pla
  | Source_case { ext; text } -> source_candidates ext text
  | Fault_case { circuit; fault } ->
    (if Option.is_some fault then [ Fault_case { circuit; fault = None } ]
     else [])
    @ List.filter_map
        (function
          | Circuit_case { circuit; _ } -> Some (Fault_case { circuit; fault })
          | Optimize_case _ | Function_case _ | Source_case _ | Fault_case _
          | Options_case _ ->
            None)
        (circuit_candidates ~circuit ~device:None ~budget:None)
  | Options_case { circuit; device; draw } ->
    (* Each choice back to its first, then the circuit's reductions. *)
    List.filter_map
      (fun i ->
        if draw.(i) = 0 then None
        else
          let fewer = Array.copy draw in
          fewer.(i) <- 0;
          Some (Options_case { circuit; device; draw = fewer }))
      (List.init (Array.length draw) Fun.id)
    @ List.filter_map
        (function
          | Circuit_case { circuit; device = Some device; _ } ->
            Some (Options_case { circuit; device; draw })
          | Circuit_case _ | Optimize_case _ | Function_case _ | Source_case _
          | Fault_case _ | Options_case _ ->
            None)
        (circuit_candidates ~circuit ~device:(Some device) ~budget:None)

(* The most check evaluations one shrink may spend. *)
let max_shrink_checks = 4000

let shrink ~check case =
  let fuel = ref max_shrink_checks in
  let still_fails c =
    if !fuel <= 0 then false
    else begin
      decr fuel;
      match check c with Property.Fail _ -> true | Property.Pass -> false
    end
  in
  let rec go case steps =
    match List.find_opt still_fails (candidates case) with
    | Some smaller when !fuel > 0 -> go smaller (steps + 1)
    | _ -> (case, steps)
  in
  go case 0

(* --- runner --- *)

type failure = {
  property : string;
  seed : int;
  case : case;
  shrunk : case;
  message : string;
  shrink_steps : int;
}

type summary = {
  property : string;
  cases : int;
  failures : failure list;
  elapsed : float;
}

(* Consecutive case seeds are spread by the 62-bit golden ratio so
   nearby base seeds do not share case streams; case 0's seed is the
   base seed itself, which is what makes `--seed S --count 1` an exact
   replay of any reported failure. *)
let golden = 0x1E3779B97F4A7C15

let case_seed ~seed i = (seed + (i * golden)) land max_int

let seconds_since start_ns =
  Int64.to_float (Int64.sub (Trace.now_ns ()) start_ns) /. 1e9

let safe_check (p : Property.t) case =
  match p.Property.check case with
  | outcome -> outcome
  | exception e ->
    Property.Fail
      (Printf.sprintf "check raised %s — properties must be total"
         (Printexc.to_string e))

let default_seed = 0
let default_count = 100

let run ?(config = default_config) ?(seed = default_seed)
    ?(count = default_count) ?time_budget
    ?(jobs = 1) ?(log = ignore) props =
  let start = Trace.now_ns () in
  let out_of_time () =
    match time_budget with
    | None -> false
    | Some limit -> seconds_since start >= limit
  in
  List.map
    (fun (p : Property.t) ->
      let prop_start = Trace.now_ns () in
      let fail_at i s case =
        let shrunk, shrink_steps = shrink ~check:(safe_check p) case in
        let message =
          match safe_check p shrunk with
          | Property.Fail m -> m
          | Property.Pass -> "unstable failure (passed on re-check)"
        in
        ( i + 1,
          [
            {
              property = p.Property.name;
              seed = s;
              case;
              shrunk;
              message;
              shrink_steps;
            };
          ] )
      in
      let rec cases i failures =
        if i >= count || failures <> [] || out_of_time () then (i, failures)
        else begin
          let s = case_seed ~seed i in
          let case = p.Property.gen config (Random.State.make [| s |]) in
          match safe_check p case with
          | Property.Pass -> cases (i + 1) failures
          | Property.Fail _ ->
            let i, fs = fail_at i s case in
            cases i fs
        end
      in
      (* Parallel mode scans fixed blocks of case indices: the pool
         generates and checks every case of a block, then the block is
         resolved in index order, so the lowest failing index wins —
         exactly where the sequential scan would have stopped.  Case
         [i]'s RNG is derived from (seed, i) alone and shrinking runs
         on the winner only, on this domain, so the reported failure
         (replay seed, shrunk case, message) is byte-identical at any
         [--jobs].  Only a time-budget stop may differ: it is checked
         between blocks rather than between cases. *)
      let rec blocks i =
        if i >= count || out_of_time () then (i, [])
        else begin
          let block = min (jobs * 4) (count - i) in
          let verdicts =
            Parallel.init ~jobs block (fun k ->
                let s = case_seed ~seed (i + k) in
                let case = p.Property.gen config (Random.State.make [| s |]) in
                (s, case, safe_check p case))
          in
          let rec resolve k =
            if k >= block then blocks (i + block)
            else
              match verdicts.(k) with
              | _, _, Property.Pass -> resolve (k + 1)
              | s, case, Property.Fail _ -> fail_at (i + k) s case
          in
          resolve 0
        end
      in
      let ran, failures = if jobs <= 1 then cases 0 [] else blocks 0 in
      let elapsed = seconds_since prop_start in
      log
        (Printf.sprintf "%-26s %4d case(s) %s  (%.2fs)" p.Property.name ran
           (match failures with
           | [] -> if ran < count then "STOPPED (time budget)" else "ok"
           | f :: _ -> Printf.sprintf "FAILED (seed %d)" f.seed)
           elapsed);
      { property = p.Property.name; cases = ran; failures; elapsed })
    props

let failed summaries = List.exists (fun s -> s.failures <> []) summaries

(* --- repro files --- *)

let sanitize_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let repro_to_string (f : failure) =
  let b = Buffer.create 512 in
  let header k v = Buffer.add_string b (Printf.sprintf "%s: %s\n" k v) in
  Buffer.add_string b "qsynth-fuzz-repro/v1\n";
  header "property" f.property;
  header "seed" (string_of_int f.seed);
  header "message" (sanitize_line f.message);
  let circuit_payload circuit device =
    (match device with
    | Some d ->
      header "device"
        (Printf.sprintf "%d %s" (Device.n_qubits d) (Device.to_dict_string d))
    | None -> header "device" "none");
    Buffer.add_string b "payload:\n";
    Buffer.add_string b (Qformats.Qc.to_string circuit)
  in
  (match f.shrunk with
  | Circuit_case { circuit; device; budget } ->
    header "case" "circuit";
    header "budget"
      (match budget with Some k -> string_of_int k | None -> "none");
    circuit_payload circuit device
  | Optimize_case { circuit; device; cost; rules } ->
    header "case" "optimize";
    List.iter (fun (k, v) -> header k v) (optimize_settings cost rules);
    circuit_payload circuit device
  | Function_case { pla } ->
    header "case" "function";
    Buffer.add_string b "payload:\n";
    Buffer.add_string b (Qformats.Pla.to_string pla)
  | Source_case { ext; text } ->
    header "case" "source";
    header "ext" ext;
    Buffer.add_string b "payload:\n";
    Buffer.add_string b text
  | Fault_case { circuit; fault } ->
    header "case" "fault";
    List.iter (fun (k, v) -> header k v) (fault_settings fault);
    circuit_payload circuit None
  | Options_case { circuit; device; draw } ->
    header "case" "options";
    header "options" (draw_to_string draw);
    circuit_payload circuit (Some device));
  Buffer.contents b

let repro_of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | magic :: rest when String.trim magic = "qsynth-fuzz-repro/v1" -> (
    let headers = Hashtbl.create 8 in
    let rec split_payload = function
      | [] -> None
      | l :: rest when String.trim l = "payload:" ->
        Some (String.concat "\n" rest)
      | l :: rest -> (
        match String.index_opt l ':' with
        | Some i ->
          Hashtbl.replace headers
            (String.trim (String.sub l 0 i))
            (String.trim (String.sub l (i + 1) (String.length l - i - 1)));
          split_payload rest
        | None -> split_payload rest)
    in
    let payload = split_payload rest in
    let get k = Hashtbl.find_opt headers k in
    match (get "property", get "seed", get "case", payload) with
    | Some property, Some seed_s, Some kind, Some payload -> (
      match int_of_string_opt seed_s with
      | None -> Error (Printf.sprintf "bad seed %S" seed_s)
      | Some seed -> (
        (* The device header and the QC payload of a circuit or
           optimize case, handed to [make]. *)
        let with_circuit make =
          let device =
            match get "device" with
            | Some "none" | None -> Ok None
            | Some spec -> (
              match String.index_opt spec ' ' with
              | None -> Error (Printf.sprintf "bad device spec %S" spec)
              | Some i -> (
                let n = String.sub spec 0 i in
                let dict =
                  String.sub spec (i + 1) (String.length spec - i - 1)
                in
                match int_of_string_opt n with
                | None -> Error (Printf.sprintf "bad device width %S" n)
                | Some n -> (
                  match
                    Device.of_dict_string ~name:"fuzz" ~n_qubits:n dict
                  with
                  | d -> Ok (Some d)
                  | exception Invalid_argument msg -> Error msg)))
          in
          match device with
          | Error msg -> Error msg
          | Ok device -> (
            match Qformats.Qc.of_string payload with
            | qc -> Ok (property, seed, make device qc.Qformats.Qc.circuit)
            | exception Qformats.Qc.Parse_error { line; message } ->
              Error (Printf.sprintf "payload line %d: %s" line message))
        in
        match kind with
        | "circuit" ->
          let budget =
            match get "budget" with
            | Some "none" | None -> None
            | Some s -> int_of_string_opt s
          in
          with_circuit (fun device circuit ->
              Circuit_case { circuit; device; budget })
        | "optimize" -> (
          (* Any linear cost, as [Cost.to_string] renders it; a
             calibration's digest cannot be read back. *)
          let cost =
            Option.bind (get "cost") (fun s ->
                Scanf.sscanf_opt s "linear:t=%s@,cnot=%s@,gate=%s%!"
                  (fun t cnot gate ->
                    match
                      List.map float_of_string_opt [ t; cnot; gate ]
                    with
                    | [ Some t; Some cnot; Some gate ] ->
                      Some (Cost.Linear { t; cnot; gate })
                    | _ -> None)
                |> Option.join)
          in
          match (cost, Option.map Rewrite.parse_selection (get "rules")) with
          | Some cost, Some (Ok rules) ->
            with_circuit (fun device circuit ->
                Optimize_case { circuit; device; cost; rules })
          | None, _ -> Error "optimize case without a linear cost header"
          | Some _, (None | Some (Error _)) ->
            Error "optimize case without a valid rules header")
        | "function" -> (
          match Qformats.Pla.of_string payload with
          | pla -> Ok (property, seed, Function_case { pla })
          | exception Qformats.Pla.Parse_error { line; message } ->
            Error (Printf.sprintf "payload line %d: %s" line message))
        | "source" -> (
          match get "ext" with
          | Some ext -> Ok (property, seed, Source_case { ext; text = payload })
          | None -> Error "source case without an ext header")
        | "fault" -> (
          let with_fault fault =
            with_circuit (fun _ circuit -> Fault_case { circuit; fault })
          in
          match
            (get "fault", Option.bind (get "fault seed") int_of_string_opt)
          with
          | Some "none", _ -> with_fault None
          | Some s, Some fault_seed -> (
            match Faultinject.spec_of_string s with
            | Ok spec -> with_fault (Some (spec, fault_seed))
            | Error _ -> Error (Printf.sprintf "bad fault %S" s))
          | _ -> Error "fault case without fault and fault seed headers")
        | "options" -> (
          match Option.bind (get "options") draw_of_string with
          | None -> Error "options case without a valid options header"
          | Some draw -> (
            match
              with_circuit (fun device circuit ->
                  Option.map
                    (fun device -> Options_case { circuit; device; draw })
                    device)
            with
            | Ok (property, seed, Some case) -> Ok (property, seed, case)
            | Ok (_, _, None) -> Error "options case without a device"
            | Error _ as e -> e))
        | k -> Error (Printf.sprintf "unknown case kind %S" k)))
    | _ -> Error "missing property/seed/case header or payload")
  | _ -> Error "not a qsynth-fuzz-repro/v1 file"

let replay ~property case =
  match Property.find property with
  | None -> Error (Printf.sprintf "unknown property %S" property)
  | Some p -> Ok (safe_check p case)

let failure_to_string (f : failure) =
  Printf.sprintf
    "property %s FAILED\n  %s\n  replay: qsc fuzz --property %s --seed %d \
     --count 1\n  shrunk counterexample (%d reduction(s)):\n%s"
    f.property f.message f.property f.seed f.shrink_steps
    (String.concat "\n"
       (List.map (fun l -> "    " ^ l)
          (String.split_on_char '\n' (case_to_string f.shrunk))))
