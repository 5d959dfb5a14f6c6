open Mathkit

type t =
  | X of int
  | Y of int
  | Z of int
  | H of int
  | S of int
  | Sdg of int
  | T of int
  | Tdg of int
  | Rx of float * int
  | Ry of float * int
  | Rz of float * int
  | Phase of float * int
  | Cnot of { control : int; target : int }
  | Cz of int * int
  | Swap of int * int
  | Toffoli of { c1 : int; c2 : int; target : int }
  | Mct of { controls : int list; target : int }

let equal a b = a = b

let kind = function
  | X _ -> 0
  | Y _ -> 1
  | Z _ -> 2
  | H _ -> 3
  | S _ -> 4
  | Sdg _ -> 5
  | T _ -> 6
  | Tdg _ -> 7
  | Rx _ -> 8
  | Ry _ -> 9
  | Rz _ -> 10
  | Phase _ -> 11
  | Cnot _ -> 12
  | Cz _ -> 13
  | Swap _ -> 14
  | Toffoli _ -> 15
  | Mct _ -> 16

let kind_count = 17

let pi = 4.0 *. atan 1.0

let canonical_angle theta =
  let two_pi = 2.0 *. pi in
  let folded = Float.rem theta two_pi in
  let folded =
    if folded > pi then folded -. two_pi
    else if folded <= -.pi then folded +. two_pi
    else folded
  in
  if abs_float folded < 1e-12 then 0.0
  else if abs_float (folded -. pi) < 1e-12 || abs_float (folded +. pi) < 1e-12
  then pi
  else folded

let phase_angle = function
  | Z q -> Some (pi, q)
  | S q -> Some (pi /. 2.0, q)
  | Sdg q -> Some (-.pi /. 2.0, q)
  | T q -> Some (pi /. 4.0, q)
  | Tdg q -> Some (-.pi /. 4.0, q)
  | Phase (theta, q) -> Some (canonical_angle theta, q)
  | X _ | Y _ | H _ | Rx _ | Ry _ | Rz _ | Cnot _ | Cz _ | Swap _ | Toffoli _
  | Mct _ ->
    None

let phase_gate theta q =
  let theta = canonical_angle theta in
  let close a b = abs_float (a -. b) < 1e-12 in
  if close theta 0.0 then None
  else if close theta pi then Some (Z q)
  else if close theta (pi /. 2.0) then Some (S q)
  else if close theta (-.pi /. 2.0) then Some (Sdg q)
  else if close theta (pi /. 4.0) then Some (T q)
  else if close theta (-.pi /. 4.0) then Some (Tdg q)
  else Some (Phase (theta, q))

let mct controls target =
  let sorted = List.sort_uniq Int.compare controls in
  if List.length sorted <> List.length controls then
    invalid_arg "Gate.mct: repeated control";
  if List.mem target sorted then invalid_arg "Gate.mct: target is a control";
  match sorted with
  | [] -> X target
  | [ c ] -> Cnot { control = c; target }
  | [ c1; c2 ] -> Toffoli { c1; c2; target }
  | controls -> Mct { controls; target }

(* The sorted, duplicate-free support of a two-operand gate, built
   without sorting: the list [List.sort_uniq] would return. *)
let pair_support a b = if a < b then [ a; b ] else if b < a then [ b; a ] else [ a ]

let support = function
  | X q | Y q | Z q | H q | S q | Sdg q | T q | Tdg q
  | Rx (_, q) | Ry (_, q) | Rz (_, q) | Phase (_, q) ->
    [ q ]
  | Cnot { control = a; target = b } | Cz (a, b) | Swap (a, b) -> pair_support a b
  | Toffoli { c1; c2; target } -> List.sort_uniq Int.compare [ c1; c2; target ]
  | Mct { controls; target } -> List.sort_uniq Int.compare (target :: controls)

(* The largest of 0 and the operands, as a fold over [support] would
   give, but read straight off the constructor: [Circuit.make]
   validates every gate through it, so it allocates nothing. *)
let max_qubit = function
  | X q | Y q | Z q | H q | S q | Sdg q | T q | Tdg q
  | Rx (_, q) | Ry (_, q) | Rz (_, q) | Phase (_, q) ->
    Int.max 0 q
  | Cnot { control = a; target = b } | Cz (a, b) | Swap (a, b) ->
    Int.max 0 (Int.max a b)
  | Toffoli { c1; c2; target } -> Int.max 0 (Int.max c1 (Int.max c2 target))
  | Mct { controls; target } -> List.fold_left Int.max (Int.max 0 target) controls

let adjoint = function
  | S q -> Sdg q
  | Sdg q -> S q
  | T q -> Tdg q
  | Tdg q -> T q
  (* Plain negation: canonicalizing here would fold -pi to pi, which
     flips the global phase of Rz/Rx/Ry and breaks involutivity. *)
  | Rx (theta, q) -> Rx (-.theta, q)
  | Ry (theta, q) -> Ry (-.theta, q)
  | Rz (theta, q) -> Rz (-.theta, q)
  | Phase (theta, q) -> Phase (-.theta, q)
  | (X _ | Y _ | Z _ | H _ | Cnot _ | Cz _ | Swap _ | Toffoli _ | Mct _) as g
    -> g

let is_self_inverse g = equal (adjoint g) g

let is_diagonal = function
  | Z _ | S _ | Sdg _ | T _ | Tdg _ | Rz _ | Phase _ | Cz _ -> true
  | X _ | Y _ | H _ | Rx _ | Ry _ | Cnot _ | Swap _ | Toffoli _ | Mct _ ->
    false

(* NOT-family gates are a bit flip on the target, controlled by the
   rest: [not_target] is the target of one, and -1, which no qubit is,
   for every other gate.  Both tests read the constructor and allocate
   nothing. *)
let not_target = function
  | X q -> q
  | Cnot { target; _ } | Toffoli { target; _ } | Mct { target; _ } -> target
  | Y _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _ | Rx _ | Ry _ | Rz _
  | Phase _ | Cz _ | Swap _ ->
    -1

let rec mem_int q = function [] -> false | p :: rest -> p = q || mem_int q rest

let is_control q = function
  | Cnot { control; _ } -> q = control
  | Toffoli { c1; c2; _ } -> q = c1 || q = c2
  | Mct { controls; _ } -> mem_int q controls
  | X _ | Y _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _ | Rx _ | Ry _ | Rz _
  | Phase _ | Cz _ | Swap _ ->
    false

(* Whether [q] is an operand of [g], and whether [g] and [h] share a
   qubit: both read the constructors, so the commutation test below
   allocates nothing. *)
let touches q = function
  | X p | Y p | Z p | H p | S p | Sdg p | T p | Tdg p
  | Rx (_, p) | Ry (_, p) | Rz (_, p) | Phase (_, p) ->
    p = q
  | Cnot { control = a; target = b } | Cz (a, b) | Swap (a, b) -> a = q || b = q
  | Toffoli { c1; c2; target } -> c1 = q || c2 = q || target = q
  | Mct { controls; target } -> target = q || mem_int q controls

let rec any_touches qs h =
  match qs with [] -> false | q :: rest -> touches q h || any_touches rest h

let shares g h =
  match g with
  | X q | Y q | Z q | H q | S q | Sdg q | T q | Tdg q
  | Rx (_, q) | Ry (_, q) | Rz (_, q) | Phase (_, q) ->
    touches q h
  | Cnot { control = a; target = b } | Cz (a, b) | Swap (a, b) ->
    touches a h || touches b h
  | Toffoli { c1; c2; target } -> touches c1 h || touches c2 h || touches target h
  | Mct { controls; target } -> touches target h || any_touches controls h

(* A diagonal gate passes a NOT-family gate whose target it avoids (the
   controls only read the bits the phase depends on); a NOT-family gate
   acts on its target as X or I, so an Rx there passes it too. *)
let passes_not g h =
  let t = not_target h in
  t >= 0
  &&
  match g with
  | Rx (_, q) -> q = t
  | _ -> is_diagonal g && not (touches t g)

(* X and Rx are functions of the same Pauli (likewise Y and Ry). *)
let axis = function X _ | Rx _ -> 1 | Y _ | Ry _ -> 2 | _ -> 0

let commutes g h =
  let tg = not_target g and th = not_target h in
  (not (shares g h))
  || equal g h
  || (is_diagonal g && is_diagonal h)
  || passes_not g h
  || passes_not h g
  || (axis g > 0 && axis g = axis h)
  (* Two NOT-family gates commute when neither target is the other's
     control. *)
  || (tg >= 0 && th >= 0 && not (is_control tg h || is_control th g))

let rename f g =
  let renamed =
    match g with
    | X q -> X (f q)
    | Y q -> Y (f q)
    | Z q -> Z (f q)
    | H q -> H (f q)
    | S q -> S (f q)
    | Sdg q -> Sdg (f q)
    | T q -> T (f q)
    | Tdg q -> Tdg (f q)
    | Rx (theta, q) -> Rx (theta, f q)
    | Ry (theta, q) -> Ry (theta, f q)
    | Rz (theta, q) -> Rz (theta, f q)
    | Phase (theta, q) -> Phase (theta, f q)
    | Cnot { control; target } -> Cnot { control = f control; target = f target }
    | Cz (a, b) -> Cz (f a, f b)
    | Swap (a, b) -> Swap (f a, f b)
    | Toffoli { c1; c2; target } ->
      Toffoli { c1 = f c1; c2 = f c2; target = f target }
    | Mct { controls; target } ->
      Mct { controls = List.map f controls; target = f target }
  in
  if List.length (support renamed) <> List.length (support g) then
    invalid_arg "Gate.rename: renaming merges qubits";
  renamed

(* The paper's IBM library: X, Y, Z, H, S, Sdg, T, Tdg, CNOT plus the
   "phase rotation" and "amplitude rotation" pulses. *)
let is_transmon_native = function
  | X _ | Y _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _ | Rx _ | Ry _ | Rz _
  | Phase _ | Cnot _ ->
    true
  | Cz _ | Swap _ | Toffoli _ | Mct _ -> false

let is_t_like = function
  | T _ | Tdg _ -> true
  | X _ | Y _ | Z _ | H _ | S _ | Sdg _ | Rx _ | Ry _ | Rz _ | Phase _
  | Cnot _ | Cz _ | Swap _ | Toffoli _ | Mct _ ->
    false

let is_cnot = function
  | Cnot _ -> true
  | X _ | Y _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _ | Rx _ | Ry _ | Rz _
  | Phase _ | Cz _ | Swap _ | Toffoli _ | Mct _ ->
    false

let arity g = List.length (support g)

let operand_count = function
  | X _ | Y _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _
  | Rx _ | Ry _ | Rz _ | Phase _ ->
    1
  | Cnot _ | Cz _ | Swap _ -> 2
  | Toffoli _ -> 3
  | Mct { controls; _ } -> List.length controls + 1

let one_qubit_matrix g =
  let s = Cx.inv_sqrt2 in
  let rows =
    match g with
    | `X -> [ [ Cx.zero; Cx.one ]; [ Cx.one; Cx.zero ] ]
    | `Y -> [ [ Cx.zero; Cx.neg Cx.i ]; [ Cx.i; Cx.zero ] ]
    | `Z -> [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.of_float (-1.0) ] ]
    | `H -> [ [ Cx.of_float s; Cx.of_float s ]; [ Cx.of_float s; Cx.of_float (-.s) ] ]
    | `S -> [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.i ] ]
    | `Sdg -> [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.neg Cx.i ] ]
    | `T -> [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.omega 1 ] ]
    | `Tdg -> [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.omega 7 ] ]
    | `Rx theta ->
      let c = Cx.of_float (cos (theta /. 2.0)) in
      let ms = Cx.make 0.0 (-.sin (theta /. 2.0)) in
      [ [ c; ms ]; [ ms; c ] ]
    | `Ry theta ->
      let c = Cx.of_float (cos (theta /. 2.0)) in
      let s' = Cx.of_float (sin (theta /. 2.0)) in
      [ [ c; Cx.neg s' ]; [ s'; c ] ]
    | `Rz theta ->
      [
        [ Cx.make (cos (theta /. 2.0)) (-.sin (theta /. 2.0)); Cx.zero ];
        [ Cx.zero; Cx.make (cos (theta /. 2.0)) (sin (theta /. 2.0)) ];
      ]
    | `Phase theta ->
      [
        [ Cx.one; Cx.zero ];
        [ Cx.zero; Cx.make (cos theta) (sin theta) ];
      ]
  in
  Matrix.of_rows rows

(* Matrix over the gate's own qubits in constructor order: controls are
   the high-order bits, the target the low-order bit, exactly as printed
   in Table 1 of the paper. *)
let base_matrix g =
  match g with
  | X _ -> one_qubit_matrix `X
  | Y _ -> one_qubit_matrix `Y
  | Z _ -> one_qubit_matrix `Z
  | H _ -> one_qubit_matrix `H
  | S _ -> one_qubit_matrix `S
  | Sdg _ -> one_qubit_matrix `Sdg
  | T _ -> one_qubit_matrix `T
  | Tdg _ -> one_qubit_matrix `Tdg
  | Rx (theta, _) -> one_qubit_matrix (`Rx theta)
  | Ry (theta, _) -> one_qubit_matrix (`Ry theta)
  | Rz (theta, _) -> one_qubit_matrix (`Rz theta)
  | Phase (theta, _) -> one_qubit_matrix (`Phase theta)
  | Cnot _ | Toffoli _ | Mct _ ->
    let n_controls =
      match g with
      | Cnot _ -> 1
      | Toffoli _ -> 2
      | Mct { controls; _ } -> List.length controls
      | _ -> assert false
    in
    let dim = 1 lsl (n_controls + 1) in
    let m = Matrix.create dim dim in
    for col = 0 to dim - 1 do
      let all_controls_set = col lsr 1 = (dim / 2) - 1 in
      let row = if all_controls_set then col lxor 1 else col in
      Matrix.set m row col Cx.one
    done;
    m
  | Cz _ ->
    let m = Matrix.identity 4 in
    Matrix.set m 3 3 (Cx.of_float (-1.0));
    m
  | Swap _ ->
    let m = Matrix.create 4 4 in
    Matrix.set m 0 0 Cx.one;
    Matrix.set m 1 2 Cx.one;
    Matrix.set m 2 1 Cx.one;
    Matrix.set m 3 3 Cx.one;
    m

(* Bit of qubit [q] inside an n-qubit basis index: qubit 0 is the MSB. *)
let bit ~n idx q = (idx lsr (n - 1 - q)) land 1
let flip ~n idx q = idx lxor (1 lsl (n - 1 - q))

let apply_basis ~n g idx =
  let one_qubit q m =
    let b = bit ~n idx q in
    let out_for out_bit =
      let amp = Matrix.get m out_bit b in
      if Cx.is_zero amp then None
      else
        let idx' = if out_bit = b then idx else flip ~n idx q in
        Some (amp, idx')
    in
    List.filter_map out_for [ 0; 1 ]
  in
  match g with
  | X q | Y q | Z q | H q | S q | Sdg q | T q | Tdg q
  | Rx (_, q) | Ry (_, q) | Rz (_, q) | Phase (_, q) ->
    one_qubit q (base_matrix g)
  | Cnot { control; target } ->
    if bit ~n idx control = 1 then [ (Cx.one, flip ~n idx target) ]
    else [ (Cx.one, idx) ]
  | Cz (a, b) ->
    if bit ~n idx a = 1 && bit ~n idx b = 1 then
      [ (Cx.of_float (-1.0), idx) ]
    else [ (Cx.one, idx) ]
  | Swap (a, b) ->
    let ba = bit ~n idx a and bb = bit ~n idx b in
    if ba = bb then [ (Cx.one, idx) ]
    else [ (Cx.one, flip ~n (flip ~n idx a) b) ]
  | Toffoli { c1; c2; target } ->
    if bit ~n idx c1 = 1 && bit ~n idx c2 = 1 then
      [ (Cx.one, flip ~n idx target) ]
    else [ (Cx.one, idx) ]
  | Mct { controls; target } ->
    if List.for_all (fun c -> bit ~n idx c = 1) controls then
      [ (Cx.one, flip ~n idx target) ]
    else [ (Cx.one, idx) ]

let embedded_matrix ~n g =
  let dim = 1 lsl n in
  let m = Matrix.create dim dim in
  for col = 0 to dim - 1 do
    List.iter
      (fun (amp, row) -> Matrix.set m row col (Cx.add (Matrix.get m row col) amp))
      (apply_basis ~n g col)
  done;
  m

let to_string = function
  | X q -> Printf.sprintf "X q%d" q
  | Y q -> Printf.sprintf "Y q%d" q
  | Z q -> Printf.sprintf "Z q%d" q
  | H q -> Printf.sprintf "H q%d" q
  | S q -> Printf.sprintf "S q%d" q
  | Sdg q -> Printf.sprintf "Sdg q%d" q
  | T q -> Printf.sprintf "T q%d" q
  | Tdg q -> Printf.sprintf "Tdg q%d" q
  | Rx (theta, q) -> Printf.sprintf "Rx(%g) q%d" theta q
  | Ry (theta, q) -> Printf.sprintf "Ry(%g) q%d" theta q
  | Rz (theta, q) -> Printf.sprintf "Rz(%g) q%d" theta q
  | Phase (theta, q) -> Printf.sprintf "P(%g) q%d" theta q
  | Cnot { control; target } -> Printf.sprintf "CNOT q%d, q%d" control target
  | Cz (a, b) -> Printf.sprintf "CZ q%d, q%d" a b
  | Swap (a, b) -> Printf.sprintf "SWAP q%d, q%d" a b
  | Toffoli { c1; c2; target } ->
    Printf.sprintf "Toffoli q%d, q%d, q%d" c1 c2 target
  | Mct { controls; target } ->
    let cs = String.concat ", " (List.map (Printf.sprintf "q%d") controls) in
    Printf.sprintf "T%d %s, q%d" (List.length controls + 1) cs target

