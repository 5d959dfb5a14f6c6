module Rule = struct
  type t =
    | Inverse_pair
    | Zero_angle
    | Non_finite_angle
    | Overlapping_qubits
    | Unused_qubit
    | Width_mismatch
    | Non_native_gate
    | Cnot_direction
    | Cnot_uncoupled
    | Width_exceeds_device
    | Volume_increase
    | Dead_gate
    | Constant_control
    | Dirty_ancilla
    | Separable_register

  let all =
    [
      Inverse_pair; Zero_angle; Non_finite_angle; Overlapping_qubits;
      Unused_qubit; Width_mismatch; Non_native_gate; Cnot_direction;
      Cnot_uncoupled; Width_exceeds_device; Volume_increase; Dead_gate;
      Constant_control; Dirty_ancilla; Separable_register;
    ]

  let code = function
    | Inverse_pair -> "inverse-pair"
    | Zero_angle -> "zero-angle"
    | Non_finite_angle -> "non-finite-angle"
    | Overlapping_qubits -> "overlapping-qubits"
    | Unused_qubit -> "unused-qubit"
    | Width_mismatch -> "width-mismatch"
    | Non_native_gate -> "non-native-gate"
    | Cnot_direction -> "cnot-direction"
    | Cnot_uncoupled -> "cnot-uncoupled"
    | Width_exceeds_device -> "width-exceeds-device"
    | Volume_increase -> "volume-increase"
    | Dead_gate -> "dead-gate"
    | Constant_control -> "constant-control"
    | Dirty_ancilla -> "dirty-ancilla"
    | Separable_register -> "separable-register"

  let of_code s = List.find_opt (fun r -> code r = s) all

  let describe = function
    | Inverse_pair -> "adjacent gate and inverse cancel to the identity"
    | Zero_angle -> "rotation with a zero canonical angle is the identity"
    | Non_finite_angle ->
      "rotation angle is NaN or infinite (no defined unitary)"
    | Overlapping_qubits -> "control and target of a gate name the same wire"
    | Unused_qubit -> "register wire no gate touches"
    | Width_mismatch -> "declared register wider than the highest wire used"
    | Non_native_gate -> "gate outside the 1-qubit + CNOT transmon library"
    | Cnot_direction ->
      "CNOT coupled only in the opposite direction (needs the 4-H reversal)"
    | Cnot_uncoupled -> "CNOT on an uncoupled qubit pair (needs routing)"
    | Width_exceeds_device -> "circuit register larger than the device"
    | Volume_increase -> "gate volume grew across an optimization stage"
    | Dead_gate ->
      "gate provably leaves the state unchanged (e.g. CNOT with a |0> control)"
    | Constant_control ->
      "control wire proved constant; the gate acts as its uncontrolled body"
    | Dirty_ancilla ->
      "wire provably left in a non-|0> state (never uncomputed)"
    | Separable_register ->
      "the register provably factors into unentangled wire groups"
end

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type finding = {
  severity : severity;
  gate_index : int option;
  rule : Rule.t;
  message : string;
}

let finding_to_string f =
  let where =
    match f.gate_index with
    | Some i -> Printf.sprintf " gate %d:" i
    | None -> ""
  in
  Printf.sprintf "%s[%s]%s %s"
    (severity_to_string f.severity)
    (Rule.code f.rule) where f.message

let pp_finding fmt f = Format.pp_print_string fmt (finding_to_string f)
let has_errors = List.exists (fun f -> f.severity = Error)

let enabled rules r =
  match rules with None -> true | Some rs -> List.mem r rs

let rotation_angle = function
  | Gate.Rx (theta, q) | Gate.Ry (theta, q) | Gate.Rz (theta, q)
  | Gate.Phase (theta, q) ->
    Some (theta, q)
  | _ -> None

let check ?rules c =
  let on = enabled rules in
  let gates = Array.of_list (Circuit.gates c) in
  let n = Circuit.n_qubits c in
  let used = Array.make n false in
  let findings = ref [] in
  let add severity gate_index rule message =
    findings := { severity; gate_index; rule; message } :: !findings
  in
  Array.iteri
    (fun i g ->
      List.iter (fun q -> if q >= 0 && q < n then used.(q) <- true)
        (Gate.support g);
      if
        on Rule.Overlapping_qubits
        && Gate.arity g < Gate.operand_count g
      then
        add Error (Some i) Rule.Overlapping_qubits
          (Printf.sprintf "%s lists the same wire more than once"
             (Gate.to_string g));
      (match rotation_angle g with
      | Some (theta, _) when not (Float.is_finite theta) ->
        if on Rule.Non_finite_angle then
          add Error (Some i) Rule.Non_finite_angle
            (Printf.sprintf "%s has a non-finite angle" (Gate.to_string g))
      | Some (theta, _)
        when on Rule.Zero_angle && Gate.canonical_angle theta = 0.0 ->
        add Warning (Some i) Rule.Zero_angle
          (Printf.sprintf "%s has a zero canonical angle (identity)"
             (Gate.to_string g))
      | _ -> ());
      if
        on Rule.Inverse_pair
        && i + 1 < Array.length gates
        && Gate.equal (Gate.adjoint g) gates.(i + 1)
      then
        add Warning (Some i) Rule.Inverse_pair
          (Printf.sprintf "%s immediately followed by its inverse %s cancels"
             (Gate.to_string g)
             (Gate.to_string gates.(i + 1))))
    gates;
  let max_used = ref (-1) in
  Array.iteri (fun q u -> if u then max_used := q) used;
  if on Rule.Width_mismatch && n > !max_used + 1 then
    add Info None Rule.Width_mismatch
      (if !max_used < 0 then
         Printf.sprintf "declared on %d qubits but contains no gates" n
       else
         Printf.sprintf "declared on %d qubits but the highest wire used is q%d"
           n !max_used);
  if on Rule.Unused_qubit then
    for q = 0 to !max_used do
      if not used.(q) then
        add Info None Rule.Unused_qubit
          (Printf.sprintf "qubit q%d is never used" q)
    done;
  List.rev !findings

let device_legal ?rules d c =
  let on = enabled rules in
  let findings = ref [] in
  let add severity gate_index rule message =
    findings := { severity; gate_index; rule; message } :: !findings
  in
  if
    on Rule.Width_exceeds_device
    && Circuit.n_qubits c > Device.n_qubits d
  then
    add Error None Rule.Width_exceeds_device
      (Printf.sprintf "circuit needs %d qubits but %s has only %d"
         (Circuit.n_qubits c) (Device.name d) (Device.n_qubits d));
  List.iteri
    (fun i g ->
      match g with
      | Gate.Cnot { control; target } ->
        if Device.allows_cnot d ~control ~target then ()
        else if Device.allows_cnot d ~control:target ~target:control then begin
          if on Rule.Cnot_direction then
            add Error (Some i) Rule.Cnot_direction
              (Printf.sprintf
                 "%s: only q%d->q%d is native on %s; needs the 4-H reversal"
                 (Gate.to_string g) target control (Device.name d))
        end
        else if on Rule.Cnot_uncoupled then
          add Error (Some i) Rule.Cnot_uncoupled
            (Printf.sprintf "%s: q%d and q%d are not coupled on %s; needs routing"
               (Gate.to_string g) control target (Device.name d))
      | Gate.Cz _ | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
        if on Rule.Non_native_gate then
          add Error (Some i) Rule.Non_native_gate
            (Printf.sprintf "%s is not in the native 1-qubit + CNOT library"
               (Gate.to_string g))
      | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
      | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _
      | Gate.Phase _ ->
        ())
    (Circuit.gates c);
  List.rev !findings

let is_device_legal d c = device_legal d c = []

(* The semantic tier: findings proved by the abstract interpreter, under
   its standing assumption that every wire starts in |0>.  Kept out of
   [check] so the purely syntactic walk stays assumption-free; the
   combined [lint] entry point and the CLI run both tiers. *)
let semantic ?rules c =
  let on = enabled rules in
  let wanted =
    [ Rule.Dead_gate; Rule.Constant_control; Rule.Dirty_ancilla;
      Rule.Separable_register ]
  in
  if not (List.exists on wanted) then []
  else begin
    let r = Absint.analyze c in
    let findings = ref [] in
    let add severity gate_index rule message =
      findings := { severity; gate_index; rule; message } :: !findings
    in
    List.iter
      (fun row ->
        match row.Absint.fact with
        | Some (Absint.Dead reason) ->
          if on Rule.Dead_gate then
            add Warning (Some row.Absint.index) Rule.Dead_gate
              (Printf.sprintf "%s provably acts as the identity (%s)"
                 (Gate.to_string row.Absint.gate) reason)
        | Some (Absint.Demoted (body, reason)) ->
          if on Rule.Constant_control then
            add Warning (Some row.Absint.index) Rule.Constant_control
              (Printf.sprintf "%s provably acts as [%s] (%s)"
                 (Gate.to_string row.Absint.gate)
                 (String.concat "; " (List.map Gate.to_string body))
                 reason)
        | None -> ())
      r.Absint.rows;
    if on Rule.Dirty_ancilla then
      Array.iteri
        (fun q (l : Absint.wire_liveness) ->
          match (l.Absint.first_use, l.Absint.final) with
          | Some _, Absint.Basis.Known s when s <> Absint.Basis.Zero ->
            add Info None Rule.Dirty_ancilla
              (Printf.sprintf
                 "q%d starts in |0> but provably ends in %s; uncompute it \
                  before releasing the wire"
                 q
                 (Absint.Basis.state_to_string s))
          | _ -> ())
        r.Absint.liveness;
    if on Rule.Separable_register && List.length r.Absint.classes > 1 then
      add Info None Rule.Separable_register
        (Printf.sprintf
           "the register provably factors into %d unentangled groups: %s"
           (List.length r.Absint.classes)
           (String.concat " " (List.map Absint.class_to_string r.Absint.classes)));
    List.rev !findings
  end

let lint ?rules ?device c =
  check ?rules c @ semantic ?rules c
  @ match device with None -> [] | Some d -> device_legal ?rules d c

(* Where each rule's finding lands in the diagnostic taxonomy when it is
   promoted to a pipeline-level report.  Callers with a more specific
   context (strict-mode contracts) override through [?kind]. *)
let default_kind = function
  | Rule.Overlapping_qubits | Rule.Non_finite_angle -> Diagnostic.Invalid_gate
  | Rule.Width_exceeds_device -> Diagnostic.Capacity
  | Rule.Cnot_direction | Rule.Cnot_uncoupled -> Diagnostic.Unroutable
  | Rule.Non_native_gate -> Diagnostic.Unsupported
  | Rule.Inverse_pair | Rule.Zero_angle | Rule.Unused_qubit
  | Rule.Width_mismatch | Rule.Volume_increase | Rule.Dead_gate
  | Rule.Constant_control | Rule.Dirty_ancilla | Rule.Separable_register ->
    Diagnostic.Lint_finding

let to_diagnostic ?file ?kind ~stage f =
  let build =
    match f.severity with
    | Error -> Diagnostic.error
    | Warning | Info -> Diagnostic.warning
  in
  build ?file ?line:None ~stage
    ~kind:(match kind with Some k -> k | None -> default_kind f.rule)
    (finding_to_string f)

module Contract = struct
  exception Violated of string

  let after_decompose c =
    List.concat
      (List.mapi
         (fun i g ->
           if Gate.is_transmon_native g then []
           else
             [
               {
                 severity = Error;
                 gate_index = Some i;
                 rule = Rule.Non_native_gate;
                 message =
                   Printf.sprintf
                     "%s survived decomposition to the native library"
                     (Gate.to_string g);
               };
             ])
         (Circuit.gates c))

  let after_route d c = device_legal d c

  let after_optimize ~before ~after =
    let findings = ref [] in
    let add rule message =
      findings := { severity = Error; gate_index = None; rule; message } :: !findings
    in
    if Circuit.n_qubits after <> Circuit.n_qubits before then
      add Rule.Width_mismatch
        (Printf.sprintf "optimization changed the register from %d to %d qubits"
           (Circuit.n_qubits before) (Circuit.n_qubits after));
    if Circuit.gate_count after > Circuit.gate_count before then
      add Rule.Volume_increase
        (Printf.sprintf "optimization grew the circuit from %d to %d gates"
           (Circuit.gate_count before) (Circuit.gate_count after));
    if Circuit.uses_only_native before && not (Circuit.uses_only_native after)
    then
      add Rule.Non_native_gate
        "optimization introduced a non-native gate into a native circuit";
    List.rev !findings

  let enforce ~stage = function
    | [] -> ()
    | first :: _ as findings ->
      raise
        (Violated
           (Printf.sprintf "%s contract violated (%d finding%s): %s" stage
              (List.length findings)
              (if List.length findings = 1 then "" else "s")
              (finding_to_string first)))
end
