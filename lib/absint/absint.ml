(* Forward abstract interpretation over circuits: per-qubit stabilizer
   basis states, an entanglement partition, and ancilla liveness, all in
   one pass.  See absint.mli for the domain contracts.

   The soundness invariant threaded through every transfer function: a
   wire whose abstract value is [Known s] is provably in the pure
   single-qubit state s AND provably unentangled from every other wire
   (its partition class is a singleton).  Merging always smashes the
   merged operands to Unknown, single-qubit gates keep the wire
   separable, and Swap exchanges the two wires' values wholesale — so
   the invariant is preserved by construction.  Because a Known wire is
   a tensor factor, a gate that only multiplies that factor by a phase
   multiplies the whole register state by a global phase; [Dead] is
   nevertheless reserved for gates that fix the state vector with
   amplitude exactly +1, so a rewrite pass may delete them without even
   a global-phase change. *)

module Basis = struct
  type state = Zero | One | Plus | Minus | PlusI | MinusI

  type t = Bot | Known of state | Unknown

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Known s, Known s' when s = s' -> a
    | Known _, Known _ | Known _, Unknown | Unknown, Known _ | Unknown, Unknown
      ->
      Unknown

  let leq a b =
    match (a, b) with
    | Bot, _ | _, Unknown -> true
    | Known s, Known s' -> s = s'
    | Known _, Bot | Unknown, (Bot | Known _) -> false

  let equal (a : t) (b : t) = a = b

  let state_to_string = function
    | Zero -> "|0>"
    | One -> "|1>"
    | Plus -> "|+>"
    | Minus -> "|->"
    | PlusI -> "|i>"
    | MinusI -> "|-i>"

  let to_string = function
    | Bot -> "_"
    | Known s -> state_to_string s
    | Unknown -> "?"

  let amplitudes s =
    let open Mathkit in
    let h = Cx.inv_sqrt2 in
    match s with
    | Zero -> (Cx.one, Cx.zero)
    | One -> (Cx.zero, Cx.one)
    | Plus -> (Cx.of_float h, Cx.of_float h)
    | Minus -> (Cx.of_float h, Cx.of_float (-.h))
    | PlusI -> (Cx.of_float h, Cx.make 0.0 h)
    | MinusI -> (Cx.of_float h, Cx.make 0.0 (-.h))
end

open Basis

type fact = Dead of string | Demoted of Gate.t list * string

type row = {
  index : int;
  gate : Gate.t;
  after : Basis.t array;
  classes : int;
  fact : fact option;
}

type wire_liveness = {
  first_use : int option;
  last_use : int option;
  final : Basis.t;
  restored : bool;
}

type result = {
  n : int;
  rows : row list;
  final : Basis.t array;
  partition : int array;
  classes : int list list;
  liveness : wire_liveness array;
  dead : (int * Gate.t * string) list;
  demoted : (int * Gate.t * Gate.t list * string) list;
  merges : int;
}

(* ---- single-qubit transfer functions --------------------------------- *)

let pi = 4.0 *. atan 1.0

(* A rotation angle as a whole number of +pi/2 quarter turns, or None
   when it provably is not one (within 1e-9 of the canonical fold). *)
let quarter_turns theta =
  let c = Gate.canonical_angle theta in
  let half_pi = pi /. 2.0 in
  let k = Float.round (c /. half_pi) in
  if Float.abs (c -. (k *. half_pi)) <= 1e-9 then
    Some (((int_of_float k mod 4) + 4) mod 4)
  else None

(* One +pi/2 Bloch rotation about each axis, as a permutation of the six
   states (rays, so phases dropped): S sends |+> -> |i> -> |-> -> |-i>;
   Rx(pi/2) sends |0> -> |-i> -> |1> -> |i>; Ry(pi/2) sends
   |0> -> |+> -> |1> -> |->. *)
let z_quarter = function
  | Plus -> PlusI
  | PlusI -> Minus
  | Minus -> MinusI
  | MinusI -> Plus
  | (Zero | One) as s -> s

let x_quarter = function
  | Zero -> MinusI
  | MinusI -> One
  | One -> PlusI
  | PlusI -> Zero
  | (Plus | Minus) as s -> s

let y_quarter = function
  | Zero -> Plus
  | Plus -> One
  | One -> Minus
  | Minus -> Zero
  | (PlusI | MinusI) as s -> s

let rec times k f s = if k <= 0 then s else times (k - 1) f (f s)

let h_map = function
  | Zero -> Plus
  | Plus -> Zero
  | One -> Minus
  | Minus -> One
  | PlusI -> MinusI
  | MinusI -> PlusI

(* Transfer of a single-qubit gate on a Known state.  Rotations at
   non-quarter canonical angles keep their axis eigenstates (as rays)
   and lose everything else. *)
let transfer_1q (g : Gate.t) (s : state) : Basis.t =
  match g with
  | Gate.X _ -> Known (times 2 x_quarter s)
  | Gate.Y _ -> Known (times 2 y_quarter s)
  | Gate.Z _ -> Known (times 2 z_quarter s)
  | Gate.H _ -> Known (h_map s)
  | Gate.S _ -> Known (z_quarter s)
  | Gate.Sdg _ -> Known (times 3 z_quarter s)
  | Gate.T _ | Gate.Tdg _ -> (
    match s with Zero | One -> Known s | _ -> Unknown)
  | Gate.Rz (theta, _) | Gate.Phase (theta, _) -> (
    match s with
    | Zero | One -> Known s
    | _ -> (
      match quarter_turns theta with
      | Some k -> Known (times k z_quarter s)
      | None -> Unknown))
  | Gate.Rx (theta, _) -> (
    match s with
    | Plus | Minus -> Known s
    | _ -> (
      match quarter_turns theta with
      | Some k -> Known (times k x_quarter s)
      | None -> Unknown))
  | Gate.Ry (theta, _) -> (
    match s with
    | PlusI | MinusI -> Known s
    | _ -> (
      match quarter_turns theta with
      | Some k -> Known (times k y_quarter s)
      | None -> Unknown))
  | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
    assert false

(* Does g fix the state vector |s> with amplitude exactly +1?  Phase
   fixes (X on |->, Rz on |0>, ...) do not count: they change the
   vector, just not the ray. *)
let dead_1q (g : Gate.t) (s : state) =
  match (g, s) with
  | (Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Phase _),
    Zero ->
    true
  | Gate.X _, Plus -> true
  | Gate.Y _, PlusI -> true
  | _ -> false

(* ---- the interpreter state ------------------------------------------- *)

type ctx = {
  st : Basis.t array;
  part : int array;
  mutable merge_count : int;
}

let known ctx q = match ctx.st.(q) with Known s -> Some s | _ -> None

let merge ctx a b =
  let la = ctx.part.(a) and lb = ctx.part.(b) in
  if la <> lb then begin
    let keep = min la lb and drop = max la lb in
    Array.iteri (fun i l -> if l = drop then ctx.part.(i) <- keep) ctx.part;
    ctx.merge_count <- ctx.merge_count + 1
  end

(* A (possibly) entangling interaction among [wires]: merge their
   classes and smash their values.  Other members of the merged classes
   are already Unknown by the module invariant. *)
let entangle ctx wires =
  (match wires with
  | [] -> ()
  | w :: rest -> List.iter (fun v -> merge ctx w v) rest);
  List.iter (fun w -> ctx.st.(w) <- Unknown) wires

let apply_1q ctx g q =
  match ctx.st.(q) with
  | Known s -> ctx.st.(q) <- transfer_1q g s
  | Unknown | Bot -> ()

let wire_list qs = String.concat ", " (List.map (Printf.sprintf "q%d") qs)

(* The NOT family (X with zero or more controls), with the phase-kickback
   special cases.  Exactness notes for each fact:
   - a control proved |0> keeps the gate from firing on any reachable
     amplitude: identity, amplitude +1;
   - target proved |+>: X|+> = |+> exactly, so the gate is the identity
     on (anything) x |+>;
   - all controls proved |1>: the gate is exactly X on the target;
   - target proved |->: X|-> = -|->, so the gate acts as a multi-
     controlled Z on the remaining controls (the target factor is
     untouched); with one live control that is exactly Z on it. *)
let controlled_x ctx controls target =
  if List.exists (fun q -> known ctx q = Some Zero) controls then begin
    let zeros = List.filter (fun q -> known ctx q = Some Zero) controls in
    Some (Dead (Printf.sprintf "control %s is |0>" (wire_list zeros)))
  end
  else begin
    let live = List.filter (fun q -> known ctx q <> Some One) controls in
    let ones = List.filter (fun q -> known ctx q = Some One) controls in
    match known ctx target with
    | Some Plus -> Some (Dead (Printf.sprintf "target q%d is |+>" target))
    | _ -> (
      match live with
      | [] ->
        apply_1q ctx (Gate.X target) target;
        Some
          (Demoted
             ( [ Gate.X target ],
               Printf.sprintf "control %s is |1>" (wire_list ones) ))
      | _ when known ctx target = Some Minus -> (
        match live with
        | [ q ] ->
          apply_1q ctx (Gate.Z q) q;
          Some
            (Demoted
               ( [ Gate.Z q ],
                 Printf.sprintf "target q%d is |->: phase kickback" target ))
        | [ a; b ] ->
          entangle ctx live;
          Some
            (Demoted
               ( [ Gate.Cz (a, b) ],
                 Printf.sprintf "target q%d is |->: phase kickback" target ))
        | _ ->
          (* C^k Z on the live controls, k >= 3: no cheaper single gate
             in the set, but the target factor provably stays |->. *)
          entangle ctx live;
          None)
      | _ ->
        entangle ctx (live @ [ target ]);
        if ones = [] then None
        else
          Some
            (Demoted
               ( [ Gate.mct live target ],
                 Printf.sprintf "control %s is |1>" (wire_list ones) )))
  end

let controlled_z ctx a b =
  match (known ctx a, known ctx b) with
  | Some Zero, _ -> Some (Dead (Printf.sprintf "q%d is |0>" a))
  | _, Some Zero -> Some (Dead (Printf.sprintf "q%d is |0>" b))
  | Some One, _ ->
    apply_1q ctx (Gate.Z b) b;
    Some (Demoted ([ Gate.Z b ], Printf.sprintf "q%d is |1>" a))
  | _, Some One ->
    apply_1q ctx (Gate.Z a) a;
    Some (Demoted ([ Gate.Z a ], Printf.sprintf "q%d is |1>" b))
  | _ ->
    entangle ctx [ a; b ];
    None

let swap ctx a b =
  match (known ctx a, known ctx b) with
  | Some sa, Some sb when sa = sb ->
    Some (Dead (Printf.sprintf "q%d and q%d are both %s" a b (state_to_string sa)))
  | _ ->
    (* Exchange the wires' abstract values and their class memberships;
       a SWAP moves state around but never entangles. *)
    let va = ctx.st.(a) and vb = ctx.st.(b) in
    ctx.st.(a) <- vb;
    ctx.st.(b) <- va;
    let la = ctx.part.(a) and lb = ctx.part.(b) in
    ctx.part.(a) <- lb;
    ctx.part.(b) <- la;
    None

(* A gate whose operand slots collide (CNOT q1,q1; Toffoli with a control
   equal to its target...) has no defined circuit semantics; treat it as
   an arbitrary interaction of its support so no fact survives it. *)
let ill_formed = function
  | Gate.Cnot { control; target } -> control = target
  | Gate.Cz (a, b) | Gate.Swap (a, b) -> a = b
  | Gate.Toffoli { c1; c2; target } -> c1 = c2 || c1 = target || c2 = target
  | Gate.Mct { controls; target } ->
    List.length (Gate.support (Gate.Mct { controls; target }))
    <> List.length controls + 1
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
  | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ ->
    false

let step ctx g =
  if ill_formed g then begin
    entangle ctx (Gate.support g);
    None
  end
  else
    match g with
    | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
    | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _
    | Gate.Phase _ ->
      let q = match Gate.support g with [ q ] -> q | _ -> assert false in
      let fact =
        match known ctx q with
        | Some s when dead_1q g s ->
          Some
            (Dead
               (Printf.sprintf "q%d is %s, fixed exactly" q (state_to_string s)))
        | _ -> None
      in
      apply_1q ctx g q;
      fact
    | Gate.Cnot { control; target } -> controlled_x ctx [ control ] target
    | Gate.Toffoli { c1; c2; target } -> controlled_x ctx [ c1; c2 ] target
    | Gate.Mct { controls; target } -> controlled_x ctx controls target
    | Gate.Cz (a, b) -> controlled_z ctx a b
    | Gate.Swap (a, b) -> swap ctx a b

(* ---- driving the pass ------------------------------------------------ *)

let class_count part =
  let seen = Hashtbl.create 16 in
  Array.iter (fun l -> if not (Hashtbl.mem seen l) then Hashtbl.add seen l ())
    part;
  Hashtbl.length seen

let classes_of_partition part =
  let groups = Hashtbl.create 16 in
  Array.iteri
    (fun i l ->
      Hashtbl.replace groups l (i :: (try Hashtbl.find groups l with Not_found -> [])))
    part;
  Hashtbl.fold (fun _ ws acc -> List.rev ws :: acc) groups []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let analyze ?(trace = Trace.disabled) c =
  let span = Trace.start trace "absint" in
  let n = Circuit.n_qubits c in
  List.iter
    (fun g ->
      List.iter
        (fun q ->
          if q < 0 || q >= n then
            invalid_arg
              (Printf.sprintf "Absint.analyze: %s uses wire q%d outside [0,%d)"
                 (Gate.to_string g) q n))
        (Gate.support g))
    (Circuit.gates c);
  let ctx =
    { st = Array.make n (Known Zero); part = Array.init n Fun.id;
      merge_count = 0 }
  in
  let first_use = Array.make n None and last_use = Array.make n None in
  let rows = ref [] and dead = ref [] and demoted = ref [] in
  List.iteri
    (fun i g ->
      List.iter
        (fun q ->
          if first_use.(q) = None then first_use.(q) <- Some i;
          last_use.(q) <- Some i)
        (Gate.support g);
      let fact = step ctx g in
      (match fact with
      | Some (Dead reason) -> dead := (i, g, reason) :: !dead
      | Some (Demoted (body, reason)) ->
        demoted := (i, g, body, reason) :: !demoted
      | None -> ());
      rows :=
        {
          index = i;
          gate = g;
          after = Array.copy ctx.st;
          classes = class_count ctx.part;
          fact;
        }
        :: !rows)
    (Circuit.gates c);
  let liveness =
    Array.init n (fun q ->
        {
          first_use = first_use.(q);
          last_use = last_use.(q);
          final = ctx.st.(q);
          restored = first_use.(q) <> None && ctx.st.(q) = Known Zero;
        })
  in
  let result =
    {
      n;
      rows = List.rev !rows;
      final = Array.copy ctx.st;
      partition = Array.copy ctx.part;
      classes = classes_of_partition ctx.part;
      liveness;
      dead = List.rev !dead;
      demoted = List.rev !demoted;
      merges = ctx.merge_count;
    }
  in
  let count p = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 in
  Trace.stop trace span
    ~counters:
      [
        ("dead_gates", float_of_int (List.length result.dead));
        ("demoted_gates", float_of_int (List.length result.demoted));
        ("merges", float_of_int result.merges);
        ("final_classes", float_of_int (List.length result.classes));
        ( "known_wires",
          float_of_int
            (count (function Known _ -> true | _ -> false) result.final) );
        ( "restored_wires",
          float_of_int (count (fun l -> l.restored) result.liveness) );
      ]
    ();
  result

(* ---- rendering ------------------------------------------------------- *)

let fact_to_string = function
  | Dead reason -> Printf.sprintf "dead: %s" reason
  | Demoted (body, reason) ->
    Printf.sprintf "acts as [%s]: %s"
      (String.concat "; " (List.map Gate.to_string body))
      reason

let class_to_string ws =
  Printf.sprintf "{%s}" (String.concat "," (List.map (Printf.sprintf "q%d") ws))

let states_on after qs =
  String.concat " "
    (List.map (fun q -> Printf.sprintf "q%d=%s" q (Basis.to_string after.(q))) qs)

(* The widest register whose rows list every wire. *)
let max_columns = 12

let state_table r =
  let buf = Buffer.create 256 in
  let all_wires = List.init r.n Fun.id in
  List.iter
    (fun row ->
      let qs =
        if r.n <= max_columns then all_wires else Gate.support row.gate
      in
      Buffer.add_string buf
        (Printf.sprintf "%4d  %-20s %s  classes=%d%s\n" row.index
           (Gate.to_string row.gate)
           (states_on row.after qs)
           row.classes
           (match row.fact with
           | Some f -> "  " ^ fact_to_string f
           | None -> "")))
    r.rows;
  Buffer.contents buf

let summary r =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let known_wires =
    List.filter
      (fun q -> match r.final.(q) with Known _ -> true | _ -> false)
      (List.init r.n Fun.id)
  in
  if r.n <= 24 then
    add "final state: %s\n" (states_on r.final (List.init r.n Fun.id))
  else
    add "final state: %d of %d wires known%s\n" (List.length known_wires) r.n
      (if known_wires = [] then ""
       else " (" ^ states_on r.final known_wires ^ ")");
  add "partition:   %s\n"
    (String.concat " " (List.map class_to_string r.classes));
  let touched =
    List.filter (fun q -> r.liveness.(q).first_use <> None)
      (List.init r.n Fun.id)
  in
  let restored = List.filter (fun q -> r.liveness.(q).restored) touched in
  if r.n <= 24 then
    List.iter
      (fun q ->
        let l = r.liveness.(q) in
        match (l.first_use, l.last_use) with
        | Some f, Some t ->
          add "  q%d: gates %d..%d, ends %s%s\n" q f t
            (Basis.to_string l.final)
            (if l.restored then " (restored to |0>)" else "")
        | _ -> add "  q%d: untouched\n" q)
      (List.init r.n Fun.id)
  else
    add "liveness:    %d wires touched, %d untouched, %d restored to |0>\n"
      (List.length touched)
      (r.n - List.length touched)
      (List.length restored);
  add "facts:       %d dead, %d demoted, %d merges, %d final class%s\n"
    (List.length r.dead) (List.length r.demoted) r.merges
    (List.length r.classes)
    (if List.length r.classes = 1 then "" else "es");
  Buffer.contents buf
