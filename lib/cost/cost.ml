type t =
  | Linear of { t : float; cnot : float; gate : float }
  | Log_fidelity of Calibration.t

let eqn2 = Linear { t = 0.5; cnot = 0.25; gate = 1.0 }
let gate_volume = Linear { t = 0.0; cnot = 0.0; gate = 1.0 }
let t_weighted = Linear { t = 10.0; cnot = 1.0; gate = 1.0 }

let evaluate cost c =
  match cost with
  | Linear { t; cnot; gate } ->
    let s = Circuit.stats c in
    (t *. float_of_int s.Circuit.t_count)
    +. (cnot *. float_of_int s.Circuit.cnot_count)
    +. (gate *. float_of_int s.Circuit.gate_volume)
  | Log_fidelity cal ->
    Circuit.fold
      (fun acc g -> acc -. log (1.0 -. Calibration.gate_error cal g))
      0.0 c

let to_string = function
  | Linear { t; cnot; gate } ->
    Printf.sprintf "linear:t=%.17g,cnot=%.17g,gate=%.17g" t cnot gate
  | Log_fidelity cal -> "log-fidelity:" ^ Calibration.digest cal

let percent_decrease ~before ~after =
  if before = 0.0 then 0.0 else 100.0 *. (before -. after) /. before
