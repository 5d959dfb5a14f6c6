exception Not_enough_qubits of string

let cnot_reverse ~control ~target =
  [
    Gate.H control;
    Gate.H target;
    Gate.Cnot { control = target; target = control };
    Gate.H control;
    Gate.H target;
  ]

let oriented_cnot ?allows ~control ~target () =
  match allows with
  | None -> [ Gate.Cnot { control; target } ]
  | Some f ->
    if f ~control ~target then [ Gate.Cnot { control; target } ]
    else if f ~control:target ~target:control then
      (* Logical CNOT(control,target) realized with the natively-allowed
         opposite orientation plus four H (Fig. 6). *)
      cnot_reverse ~control ~target
    else
      invalid_arg
        (Printf.sprintf "Decompose.swap_as_cnots: q%d and q%d not coupled"
           control target)

let swap_as_cnots ?allows a b =
  if a = b then invalid_arg "Decompose.swap_as_cnots: equal qubits";
  List.concat
    [
      oriented_cnot ?allows ~control:a ~target:b ();
      oriented_cnot ?allows ~control:b ~target:a ();
      oriented_cnot ?allows ~control:a ~target:b ();
    ]

(* Nielsen & Chuang Fig. 4.9: exact (phase-free) Toffoli from the
   Clifford+T library — 7 T/Tdg, 6 CNOT, 2 H. *)
let toffoli_to_clifford_t ~c1 ~c2 ~target =
  let a = c1 and b = c2 and c = target in
  [
    Gate.H c;
    Gate.Cnot { control = b; target = c };
    Gate.Tdg c;
    Gate.Cnot { control = a; target = c };
    Gate.T c;
    Gate.Cnot { control = b; target = c };
    Gate.Tdg c;
    Gate.Cnot { control = a; target = c };
    Gate.T b;
    Gate.T c;
    Gate.Cnot { control = a; target = b };
    Gate.H c;
    Gate.T a;
    Gate.Tdg b;
    Gate.Cnot { control = a; target = b };
  ]

let cz_to_cnot a b = [ Gate.H b; Gate.Cnot { control = a; target = b }; Gate.H b ]

(* Barenco Lemma 7.2: k-control NOT from 4(k-2) Toffolis using k-2
   borrowed (dirty) work qubits.  The double-pass structure makes the
   network exact whatever the initial work-qubit states, and restores
   them. *)
let vchain controls target works =
  let k = List.length controls in
  let c = Array.of_list controls in
  let w = Array.of_list works in
  assert (Array.length w >= k - 2);
  let toffoli c1 c2 t = Gate.Toffoli { c1; c2; target = t } in
  let top = toffoli c.(0) c.(1) w.(0) in
  let cap = toffoli c.(k - 1) w.(k - 3) target in
  (* Staircase between the cap and the top: control c_i pairs work
     w_{i-3} into w_{i-2} (1-based i from 3 to k-1). *)
  let down =
    List.map (fun i -> toffoli c.(i - 1) w.(i - 3) w.(i - 2))
      (List.init (k - 3) (fun j -> k - 1 - j))
  in
  let up = List.rev down in
  List.concat [ [ cap ]; down; [ top ]; up; [ cap ]; down; [ top ]; up ]

let free_qubits ~n ~controls ~target =
  let used = Array.make n false in
  List.iter (fun q -> used.(q) <- true) (target :: controls);
  List.filter (fun q -> not used.(q)) (List.init n (fun i -> i))

let rec mct_to_toffoli ~n ~controls ~target =
  let k = List.length controls in
  if k <= 2 then [ Gate.mct controls target ]
  else
    let free = free_qubits ~n ~controls ~target in
    if List.length free >= k - 2 then
      let works = List.filteri (fun i _ -> i < k - 2) free in
      vchain controls target works
    else
      match free with
      | [] ->
        raise
          (Not_enough_qubits
             (Printf.sprintf
                "T%d gate needs a borrowed qubit but the %d-qubit register is full"
                (k + 1) n))
      | borrowed :: _ ->
        (* Barenco Lemma 7.3: split into two smaller generalized
           Toffolis through the borrowed qubit; the B A B A sequence
           computes t ^= AND(all controls) and restores [borrowed]. *)
        let m = (k + 1) / 2 in
        let first = List.filteri (fun i _ -> i < m) controls in
        let second = List.filteri (fun i _ -> i >= m) controls in
        let gate_a = mct_to_toffoli ~n ~controls:first ~target:borrowed in
        let gate_b =
          mct_to_toffoli ~n ~controls:(second @ [ borrowed ]) ~target
        in
        List.concat [ gate_b; gate_a; gate_b; gate_a ]

(* Controlled-diag(1, e^{i theta}): phases on both qubits plus a
   CNOT-conjugated counter-phase.  Exact, including global phase. *)
let controlled_phase ~theta ~control ~target =
  let half = theta /. 2.0 in
  [
    Gate.Phase (half, control);
    Gate.Phase (half, target);
    Gate.Cnot { control; target };
    Gate.Phase (-.half, target);
    Gate.Cnot { control; target };
  ]

let controlled_rz ~theta ~control ~target =
  let half = theta /. 2.0 in
  [
    Gate.Rz (half, target);
    Gate.Cnot { control; target };
    Gate.Rz (-.half, target);
    Gate.Cnot { control; target };
  ]

let controlled_ry ~theta ~control ~target =
  let half = theta /. 2.0 in
  [
    Gate.Ry (half, target);
    Gate.Cnot { control; target };
    Gate.Ry (-.half, target);
    Gate.Cnot { control; target };
  ]

let mcz ~n ~controls ~target =
  (Gate.H target :: mct_to_toffoli ~n ~controls ~target) @ [ Gate.H target ]

let rec lower_gate ~n g =
  if Gate.is_transmon_native g then [ g ]
  else
    match g with
    | Gate.Cz (a, b) -> cz_to_cnot a b
    | Gate.Swap (a, b) -> swap_as_cnots a b
    | Gate.Toffoli { c1; c2; target } -> toffoli_to_clifford_t ~c1 ~c2 ~target
    | Gate.Mct { controls; target } ->
      mct_to_toffoli ~n ~controls ~target
      |> List.concat_map (lower_gate ~n)
    | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
    | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _
    | Gate.Phase _ | Gate.Cnot _ ->
      [ g ]

let to_native c =
  let n = Circuit.n_qubits c in
  Circuit.map_gates (lower_gate ~n) c
