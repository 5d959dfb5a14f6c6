(* ---- pattern matching ------------------------------------------------ *)

type gate_pattern =
  | Px of int
  | Py of int
  | Pz of int
  | Ph of int
  | Ps of int
  | Psdg of int
  | Pt of int
  | Ptdg of int
  | Prx of int * int
  | Pry of int * int
  | Prz of int * int
  | Pphase of int * int
  | Pcnot of int * int
  | Pcz of int * int
  | Pswap of int * int

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

(* Every extension of [env] under which [p] matches [g].  The symmetric
   two-qubit patterns (CZ, SWAP) try both operand orders, so a rule can
   name "the other wire" without caring how the gate was stored. *)
let match_gate env p g =
  let one = function Some e -> [ e ] | None -> [] in
  match (p, g) with
  | Px v, Gate.X q
  | Py v, Gate.Y q
  | Pz v, Gate.Z q
  | Ph v, Gate.H q
  | Ps v, Gate.S q
  | Psdg v, Gate.Sdg q
  | Pt v, Gate.T q
  | Ptdg v, Gate.Tdg q ->
    one (bind_wire env v q)
  | Prx (av, wv), Gate.Rx (theta, q)
  | Pry (av, wv), Gate.Ry (theta, q)
  | Prz (av, wv), Gate.Rz (theta, q)
  | Pphase (av, wv), Gate.Phase (theta, q) -> (
    match bind_wire env wv q with
    | None -> []
    | Some e -> one (bind_angle e av theta))
  | Pcnot (cv, tv), Gate.Cnot { control; target } -> (
    match bind_wire env cv control with
    | None -> []
    | Some e -> one (bind_wire e tv target))
  | Pcz (uv, vv), Gate.Cz (a, b) | Pswap (uv, vv), Gate.Swap (a, b) ->
    let try_order x y =
      match bind_wire env uv x with
      | None -> []
      | Some e -> one (bind_wire e vv y)
    in
    try_order a b @ try_order b a
  | _, _ -> []

(* ---- the rule registry ----------------------------------------------- *)

type rule = {
  name : string;
  doc : string;
  pattern : gate_pattern list;
  pattern_doc : string;
  guard : device:Device.t option -> env -> bool;
  guard_doc : string;
  replacement : env -> Gate.t list;
  replacement_doc : string;
  default_on : bool;
}

let direction_ok ~device ~control ~target =
  match device with
  | None -> true
  | Some d -> Device.allows_cnot d ~control ~target

let no_guard ~device:_ _ = true

(* Every replacement below is exactly equal to its pattern's unitary —
   global phase included — and strictly shorter, so template application
   terminates and the optimizer's exactness promise holds.  Identities
   that only hold modulo a phase (H Y H = -Y, Z X = i Y, ...) are
   deliberately absent. *)
let rules =
  [
    {
      name = "cnot-reversal";
      doc =
        "Four H around a CNOT are the reversed CNOT (the paper's Fig. 6 \
         basis-change pattern).";
      pattern = [ Ph 0; Ph 1; Pcnot (2, 3); Ph 4; Ph 5 ];
      pattern_doc = "H a; H b; CNOT c->t; H a'; H b'";
      guard =
        (fun ~device env ->
          let c = wire env 2 and t = wire env 3 in
          let pair u v = (u = c && v = t) || (u = t && v = c) in
          pair (wire env 0) (wire env 1)
          && pair (wire env 4) (wire env 5)
          && direction_ok ~device ~control:t ~target:c);
      guard_doc = "{a,b} = {a',b'} = {c,t}; CNOT t->c legal on device";
      replacement =
        (fun env -> [ Gate.Cnot { control = wire env 3; target = wire env 2 } ]);
      replacement_doc = "CNOT t->c";
      default_on = true;
    };
    {
      name = "h-x-h-to-z";
      doc = "H-conjugation: H X H = Z, exactly.";
      pattern = [ Ph 0; Px 0; Ph 0 ];
      pattern_doc = "H a; X a; H a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Z (wire env 0) ]);
      replacement_doc = "Z a";
      default_on = true;
    };
    {
      name = "h-z-h-to-x";
      doc = "H-conjugation: H Z H = X, exactly.";
      pattern = [ Ph 0; Pz 0; Ph 0 ];
      pattern_doc = "H a; Z a; H a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.X (wire env 0) ]);
      replacement_doc = "X a";
      default_on = true;
    };
    {
      name = "h-cz-h-to-cnot";
      doc =
        "H on one operand of a CZ turns it into a CNOT targeting that \
         operand.";
      pattern = [ Ph 0; Pcz (1, 0); Ph 0 ];
      pattern_doc = "H t; CZ c, t; H t";
      guard =
        (fun ~device env ->
          direction_ok ~device ~control:(wire env 1) ~target:(wire env 0));
      guard_doc = "CNOT c->t legal on device";
      replacement =
        (fun env -> [ Gate.Cnot { control = wire env 1; target = wire env 0 } ]);
      replacement_doc = "CNOT c->t";
      default_on = true;
    };
    {
      name = "x-rz-x-flip";
      doc = "X-conjugation negates a Z rotation: X Rz(t) X = Rz(-t), exactly.";
      pattern = [ Px 0; Prz (0, 0); Px 0 ];
      pattern_doc = "X a; Rz(t) a; X a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Rz (-.angle env 0, wire env 0) ]);
      replacement_doc = "Rz(-t) a";
      default_on = true;
    };
    {
      name = "x-ry-x-flip";
      doc = "X-conjugation negates a Y rotation: X Ry(t) X = Ry(-t), exactly.";
      pattern = [ Px 0; Pry (0, 0); Px 0 ];
      pattern_doc = "X a; Ry(t) a; X a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Ry (-.angle env 0, wire env 0) ]);
      replacement_doc = "Ry(-t) a";
      default_on = true;
    };
    {
      name = "z-rx-z-flip";
      doc = "Z-conjugation negates an X rotation: Z Rx(t) Z = Rx(-t), exactly.";
      pattern = [ Pz 0; Prx (0, 0); Pz 0 ];
      pattern_doc = "Z a; Rx(t) a; Z a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Rx (-.angle env 0, wire env 0) ]);
      replacement_doc = "Rx(-t) a";
      default_on = true;
    };
    {
      name = "z-ry-z-flip";
      doc = "Z-conjugation negates a Y rotation: Z Ry(t) Z = Ry(-t), exactly.";
      pattern = [ Pz 0; Pry (0, 0); Pz 0 ];
      pattern_doc = "Z a; Ry(t) a; Z a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Ry (-.angle env 0, wire env 0) ]);
      replacement_doc = "Ry(-t) a";
      default_on = true;
    };
    {
      name = "h-rx-h-to-rz";
      doc = "H-conjugation swaps rotation axes: H Rx(t) H = Rz(t), exactly.";
      pattern = [ Ph 0; Prx (0, 0); Ph 0 ];
      pattern_doc = "H a; Rx(t) a; H a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Rz (angle env 0, wire env 0) ]);
      replacement_doc = "Rz(t) a";
      default_on = true;
    };
    {
      name = "h-rz-h-to-rx";
      doc = "H-conjugation swaps rotation axes: H Rz(t) H = Rx(t), exactly.";
      pattern = [ Ph 0; Prz (0, 0); Ph 0 ];
      pattern_doc = "H a; Rz(t) a; H a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Rx (angle env 0, wire env 0) ]);
      replacement_doc = "Rx(t) a";
      default_on = true;
    };
    {
      name = "sdg-x-s-to-y";
      doc = "S-conjugation rotates Pauli axes: the run Sdg; X; S is Y, exactly.";
      pattern = [ Psdg 0; Px 0; Ps 0 ];
      pattern_doc = "Sdg a; X a; S a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.Y (wire env 0) ]);
      replacement_doc = "Y a";
      default_on = true;
    };
    {
      name = "s-y-sdg-to-x";
      doc = "S-conjugation rotates Pauli axes: the run S; Y; Sdg is X, exactly.";
      pattern = [ Ps 0; Py 0; Psdg 0 ];
      pattern_doc = "S a; Y a; Sdg a";
      guard = no_guard;
      guard_doc = "-";
      replacement = (fun env -> [ Gate.X (wire env 0) ]);
      replacement_doc = "X a";
      default_on = true;
    };
    {
      name = "cnot-triple-to-swap";
      doc = "Three alternating CNOTs are a SWAP.";
      pattern = [ Pcnot (0, 1); Pcnot (1, 0); Pcnot (0, 1) ];
      pattern_doc = "CNOT a->b; CNOT b->a; CNOT a->b";
      guard = (fun ~device _ -> device = None);
      guard_doc = "unmapped circuits only (SWAP is not transmon-native)";
      replacement = (fun env -> [ Gate.Swap (wire env 0, wire env 1) ]);
      replacement_doc = "SWAP a, b";
      default_on = true;
    };
  ]

let find_rule name = List.find_opt (fun r -> r.name = name) rules

let engine_pass_names = [ "rotation-merge"; "phase-merge"; "clifford-normalize" ]
let all_names = List.map (fun r -> r.name) rules @ engine_pass_names

(* ---- rule selection -------------------------------------------------- *)

module StringSet = Set.Make (String)

type selection = StringSet.t

let default_selection =
  StringSet.of_list
    (List.map (fun r -> r.name) (List.filter (fun r -> r.default_on) rules)
    @ engine_pass_names)

let empty_selection = StringSet.empty
let enabled sel name = StringSet.mem name sel

let parse_selection s =
  let tokens =
    List.filter
      (fun t -> t <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let known n = List.mem n all_names in
  let step acc token =
    match acc with
    | Error _ -> acc
    | Ok set -> (
      match token with
      | "all" -> Ok (StringSet.of_list all_names)
      | "none" -> Ok StringSet.empty
      | "default" -> Ok default_selection
      | t when String.length t > 1 && t.[0] = '-' ->
        let n = String.sub t 1 (String.length t - 1) in
        if known n then Ok (StringSet.remove n set)
        else Error (Printf.sprintf "unknown rewrite rule %S" n)
      | t ->
        if known t then Ok (StringSet.add t set)
        else Error (Printf.sprintf "unknown rewrite rule %S" t))
  in
  (* A leading removal means "the default set minus ..."; anything else
     builds the set from scratch, so canonical renderings round-trip. *)
  let start =
    match tokens with
    | t :: _ when String.length t > 1 && t.[0] = '-' -> default_selection
    | _ -> StringSet.empty
  in
  if tokens = [] then Ok default_selection
  else List.fold_left step (Ok start) tokens

let selection_to_string sel =
  if StringSet.is_empty sel then "none"
  else String.concat "," (StringSet.elements sel)

(* ---- template application -------------------------------------------- *)

(* Match [rule.pattern] against a prefix of [gates]; the first binding
   that satisfies the guard wins.  Patterns are at most five gates, so
   the candidate-environment list stays tiny. *)
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

let apply_templates ?device ?(selection = default_selection) c =
  let enabled_rules = List.filter (fun r -> enabled selection r.name) rules in
  if enabled_rules = [] then (c, [])
  else begin
    let counts = Hashtbl.create 8 in
    let bump name =
      Hashtbl.replace counts name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
    in
    (* One left-to-right sweep.  A replacement is matched again where it
       lands; matches it enables further left wait for the optimizer's
       next sweep. *)
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

(* ---- rotation merging ------------------------------------------------ *)

type axis = Ax | Ay | Az

let axis_rotation = function
  | Gate.Rx (t, q) -> Some (Ax, t, q)
  | Gate.Ry (t, q) -> Some (Ay, t, q)
  | Gate.Rz (t, q) -> Some (Az, t, q)
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
  | Gate.T _ | Gate.Tdg _ | Gate.Phase _ | Gate.Cnot _ | Gate.Cz _
  | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
    None

let rotation_gate ax theta q =
  match ax with
  | Ax -> Gate.Rx (theta, q)
  | Ay -> Gate.Ry (theta, q)
  | Az -> Gate.Rz (theta, q)

(* Rotations have period 4 pi exactly — Rz(2 pi) = -I — so deletion
   demands a 4 pi multiple (within 1e-12, matching the optimizer's
   angle-snapping tolerance). *)
let rotation_deletable theta =
  let period = 4.0 *. Float.pi in
  let r = Float.rem theta period in
  abs_float r < 1e-12 || period -. abs_float r < 1e-12

let merge_rotations c =
  let n = Circuit.n_qubits c in
  if n = 0 then (c, 0)
  else begin
    let pending : (axis * float) option array = Array.make n None in
    let out = Circuit.Builder.create ~n in
    let eliminated = ref 0 in
    let flush q =
      match pending.(q) with
      | None -> ()
      | Some (ax, theta) ->
        pending.(q) <- None;
        if rotation_deletable theta then incr eliminated
        else Circuit.Builder.add out (rotation_gate ax theta q)
    in
    Circuit.iter
      (fun g ->
        match axis_rotation g with
        | Some (ax, theta, q) -> (
          match pending.(q) with
          | Some (ax', acc) when ax' = ax ->
            pending.(q) <- Some (ax, acc +. theta);
            incr eliminated
          | Some _ ->
            flush q;
            pending.(q) <- Some (ax, theta)
          | None -> pending.(q) <- Some (ax, theta))
        | None ->
          List.iter
            (fun q ->
              match pending.(q) with
              | None -> ()
              | Some (ax, theta) ->
                if not (Gate.commutes (rotation_gate ax theta q) g) then flush q)
            (Gate.support g);
          Circuit.Builder.add out g)
      c;
    for q = 0 to n - 1 do
      flush q
    done;
    if !eliminated = 0 then (c, 0)
    else (Circuit.Builder.to_circuit out, !eliminated)
  end

(* ---- phase-polynomial merging ---------------------------------------- *)

(* Each wire carries an affine parity: a sorted list of variables (the
   initial wire values plus a fresh variable per non-affine write) and a
   complement bit.  Diagonal rotations applied where the same parity is
   live realize the same operator — a phase that depends only on that
   parity's value — so their angles fold into the first occurrence.
   This is staq-style phase folding; soundness is the path-sum argument:
   diagonal factors over equal parity functions are interchangeable
   inside the amplitude product. *)

type slot = {
  mutable sum : float;
  mutable hits : int;
  s_wire : int;
  s_const : bool;
  s_gate : Gate.t;  (* the original gate, re-emitted when unmerged *)
  s_rz : bool;
}

let merge_phase_polynomial c =
  let n = Circuit.n_qubits c in
  if n = 0 then (c, 0)
  else begin
    let fresh = ref n in
    let parity = Array.init n (fun i -> ([ i ], false)) in
    let new_var q =
      parity.(q) <- ([ !fresh ], false);
      incr fresh
    in
    let rec symdiff a b =
      match (a, b) with
      | [], r | r, [] -> r
      | x :: xs, y :: ys ->
        if x < y then x :: symdiff xs b
        else if y < x then y :: symdiff a ys
        else symdiff xs ys
    in
    let slots : (bool * int list * bool, slot) Hashtbl.t = Hashtbl.create 64 in
    (* [`Keep g] passes through, [`Slot s] marks a slot's first
       occurrence, [`Drop] a later rotation folded into its slot. *)
    let classify g =
      match Gate.phase_angle g with
      | Some (phi, q) -> (
        let p, cst = parity.(q) in
        let key = (true, p, cst) in
        match Hashtbl.find_opt slots key with
        | Some s ->
          s.sum <- s.sum +. phi;
          s.hits <- s.hits + 1;
          `Drop
        | None ->
          let s =
            { sum = phi; hits = 1; s_wire = q; s_const = cst; s_gate = g;
              s_rz = false }
          in
          Hashtbl.replace slots key s;
          `Slot s)
      | None -> (
        match g with
        | Gate.Rz (theta, q) -> (
          let p, cst = parity.(q) in
          (* Rz through a complemented parity is Rz with the angle
             negated — exactly, with no global-phase residue — so the
             contribution normalizes to the plain-parity frame and the
             complement bit stays out of the key. *)
          let contribution = if cst then -.theta else theta in
          let key = (false, p, false) in
          match Hashtbl.find_opt slots key with
          | Some s ->
            s.sum <- s.sum +. contribution;
            s.hits <- s.hits + 1;
            `Drop
          | None ->
            let s =
              { sum = contribution; hits = 1; s_wire = q; s_const = cst;
                s_gate = g; s_rz = true }
            in
            Hashtbl.replace slots key s;
            `Slot s)
        | Gate.Cnot { control; target } ->
          let pc, cc = parity.(control) and pt, ct = parity.(target) in
          parity.(target) <- (symdiff pc pt, cc <> ct);
          `Keep g
        | Gate.X q ->
          let p, cst = parity.(q) in
          parity.(q) <- (p, not cst);
          `Keep g
        | Gate.Swap (a, b) ->
          let pa = parity.(a) in
          parity.(a) <- parity.(b);
          parity.(b) <- pa;
          `Keep g
        | Gate.Cz _ ->
          (* diagonal: preserves every wire's computational value *)
          `Keep g
        | Gate.Toffoli { target; _ } | Gate.Mct { target; _ } ->
          (* a permutation, but the target update is non-affine *)
          new_var target;
          `Keep g
        | Gate.H q | Gate.Y q | Gate.Rx (_, q) | Gate.Ry (_, q) ->
          new_var q;
          `Keep g
        | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _
        | Gate.Phase _ ->
          (* unreachable: phase_angle covers the whole phase family *)
          `Keep g)
    in
    let decisions =
      List.rev (List.fold_left (fun acc g -> classify g :: acc) []
                  (Circuit.gates c))
    in
    let before = Circuit.gate_count c in
    let emit = function
      | `Keep g -> [ g ]
      | `Drop -> []
      | `Slot s ->
        if s.hits = 1 then [ s.s_gate ]
        else if s.s_rz then
          if rotation_deletable s.sum then []
          else [ Gate.Rz ((if s.s_const then -.s.sum else s.sum), s.s_wire) ]
        else (
          match Gate.phase_gate s.sum s.s_wire with
          | None -> []
          | Some g -> [ g ])
    in
    let gates = List.concat_map emit decisions in
    let eliminated = before - List.length gates in
    if eliminated = 0 then (c, 0)
    else (Circuit.make ~n gates, eliminated)
  end

(* ---- Clifford normalization ------------------------------------------ *)

let clifford_1q = function
  | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q ->
    Some q
  | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _
  | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
    None

let clifford_alphabet = [ Gate.H 0; Gate.S 0; Gate.Sdg 0; Gate.X 0; Gate.Y 0; Gate.Z 0 ]

(* Exact matrices only: entries of the one-qubit Clifford group (with
   its phases) are separated by ~0.29, so rounding to 6 decimals after
   flushing signed zeros gives collision-free keys while absorbing
   float-product noise (~1e-15). *)
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

(* Shortest word (in circuit order) for every exact matrix reachable
   from the alphabet within 6 gates: a breadth-first enumeration of the
   one-qubit Clifford group including global phases, ~192 matrices.
   Built eagerly at module init — it is microseconds of work, and a
   [lazy] here would race when bench/fuzz fan optimization across
   domains (concurrent forcing raises [CamlinternalLazy.Undefined]). *)
let clifford_table =
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
           clifford_alphabet
     done;
     tbl)

let normalize_cliffords c =
  let n = Circuit.n_qubits c in
  let gates = Array.of_list (Circuit.gates c) in
  if n = 0 || Array.length gates = 0 then (c, 0)
  else begin
    let table = clifford_table in
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
