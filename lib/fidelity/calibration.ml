type t = {
  device : Device.t;
  single : float array;
  readout : float array;
  cnot : (int * int, float) Hashtbl.t;
}

(* Deterministic pseudo-random value in [0, 1) from a seed and a key;
   good enough to spread synthetic error rates across qubits. *)
let jitter seed key =
  let h = Hashtbl.hash (seed, key) in
  float_of_int (h land 0xFFFFFF) /. float_of_int 0x1000000

let synthetic ?(seed = 42) device =
  let n = Device.n_qubits device in
  let single =
    Array.init n (fun q -> 0.0005 +. (0.0015 *. jitter seed ("1q", q)))
  in
  let readout =
    Array.init n (fun q -> 0.01 +. (0.05 *. jitter seed ("ro", q)))
  in
  let cnot = Hashtbl.create 64 in
  List.iter
    (fun (c, tgt) ->
      Hashtbl.replace cnot (c, tgt)
        (0.01 +. (0.04 *. jitter seed ("cx", c, tgt))))
    (Device.couplings device);
  { device; single; readout; cnot }

let check_rate what r =
  if r < 0.0 || r >= 1.0 then
    invalid_arg (Printf.sprintf "Calibration: %s rate %g outside [0,1)" what r)

let of_values device ~single ~readout ~cnot =
  let cal = synthetic device in
  let n = Device.n_qubits device in
  let check_qubit q =
    if q < 0 || q >= n then
      invalid_arg (Printf.sprintf "Calibration: qubit %d not on %s" q (Device.name device))
  in
  List.iter
    (fun (q, r) ->
      check_qubit q;
      check_rate "single-qubit" r;
      cal.single.(q) <- r)
    single;
  List.iter
    (fun (q, r) ->
      check_qubit q;
      check_rate "readout" r;
      cal.readout.(q) <- r)
    readout;
  List.iter
    (fun ((c, tgt), r) ->
      if not (Device.allows_cnot device ~control:c ~target:tgt) then
        invalid_arg
          (Printf.sprintf "Calibration: coupling (%d,%d) not on %s" c tgt
             (Device.name device));
      check_rate "CNOT" r;
      Hashtbl.replace cal.cnot (c, tgt) r)
    cnot;
  cal

let device cal = cal.device
let single_qubit_error cal q = cal.single.(q)
let readout_error cal q = cal.readout.(q)

let cnot_error cal ~control ~target =
  if Device.is_simulator cal.device then 0.0
  else
    match Hashtbl.find_opt cal.cnot (control, target) with
    | Some r -> r
    | None ->
      invalid_arg
        (Printf.sprintf "Calibration: no native CNOT (%d,%d) on %s" control
           target (Device.name cal.device))

(* Compound error of a gate sequence: 1 - prod (1 - e_i). *)
let compound errors =
  1.0 -. List.fold_left (fun acc e -> acc *. (1.0 -. e)) 1.0 errors

let rec gate_error cal g =
  match g with
  | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q
  | Gate.T q | Gate.Tdg q
  | Gate.Rx (_, q) | Gate.Ry (_, q) | Gate.Rz (_, q) | Gate.Phase (_, q) ->
    single_qubit_error cal q
  | Gate.Cnot { control; target } ->
    if Device.is_simulator cal.device then 0.0
    else if Device.allows_cnot cal.device ~control ~target then
      cnot_error cal ~control ~target
    else if Device.allows_cnot cal.device ~control:target ~target:control then
      (* Fig. 6 realization: reversed CNOT plus four H. *)
      compound
        (cnot_error cal ~control:target ~target:control
        :: List.map (single_qubit_error cal) [ control; control; target; target ])
    else
      invalid_arg
        (Printf.sprintf "Calibration: CNOT (%d,%d) not executable on %s" control
           target (Device.name cal.device))
  | Gate.Swap (a, b) ->
    (* The 3-CNOT realization (with reversals as needed). *)
    compound
      (List.map (gate_error cal)
         [
           Gate.Cnot { control = a; target = b };
           Gate.Cnot { control = b; target = a };
           Gate.Cnot { control = a; target = b };
         ])
  | Gate.Cz _ | Gate.Toffoli _ | Gate.Mct _ ->
    invalid_arg
      (Printf.sprintf "Calibration: %s is not in the native library"
         (Gate.to_string g))

let success_probability cal c =
  Circuit.fold (fun acc g -> acc *. (1.0 -. gate_error cal g)) 1.0 c

let swap_hop_weight cal a b = -.log (1.0 -. gate_error cal (Gate.Swap (a, b)))

(* Sorted and printed in hex, so equal calibrations render, and hash,
   identically whatever order their tables were filled in. *)
let digest cal =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Device.to_dict_string cal.device);
  Array.iteri
    (fun q e -> Printf.bprintf b ";q%d %h %h" q e cal.readout.(q))
    cal.single;
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) cal.cnot []
  |> List.sort compare
  |> List.iter (fun ((c, t), e) -> Printf.bprintf b ";cx%d-%d %h" c t e);
  Digest.to_hex (Digest.string (Buffer.contents b))
