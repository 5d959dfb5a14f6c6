type budget = {
  node_budget : int option;
  deadline_ns : int64 option;
  dense_qubits : int;
}

let default_budget = { node_budget = None; deadline_ns = None; dense_qubits = 10 }

type engine = Dense | Qmdd

type give_up =
  | Node_budget
  | Deadline
  | Too_wide of { qubits : int; cap : int }
  | Failed of string

type verdict = Equal | Different | Gave_up of give_up

let failed engine exn =
  Gave_up (Failed (Printf.sprintf "%s raised %s" engine (Printexc.to_string exn)))

let cap budget = min budget.dense_qubits Sim.max_unitary_qubits

(* The dense engine cannot be interrupted, so the deadline is only
   consulted before it starts. *)
let dense budget a f =
  if Trace.past budget.deadline_ns then Gave_up Deadline
  else if Circuit.n_qubits a > cap budget then
    Gave_up (Too_wide { qubits = Circuit.n_qubits a; cap = cap budget })
  else
    match f () with
    | true -> Equal
    | false -> Different
    | exception exn -> failed "dense-matrix oracle" exn

let qmdd f =
  match f () with
  | true -> Equal
  | false -> Different
  | exception Qmdd.Node_budget_exceeded -> Gave_up Node_budget
  | exception Qmdd.Deadline_exceeded -> Gave_up Deadline
  | exception exn -> failed "QMDD equivalence" exn

let engine_for ?engine budget a =
  match engine with
  | Some e -> e
  | None -> if Circuit.n_qubits a <= cap budget then Dense else Qmdd

let unitary ?engine ?stats budget a b =
  match engine_for ?engine budget a with
  | Dense -> dense budget a (fun () -> Sim.equivalent ~up_to_phase:false a b)
  | Qmdd ->
    qmdd (fun () ->
        Qmdd.equivalent ~up_to_phase:false ?node_budget:budget.node_budget
          ?deadline_ns:budget.deadline_ns ?stats a b)

let zero_state budget a b =
  let n = Circuit.n_qubits a in
  match engine_for budget a with
  | Dense ->
    dense budget a (fun () ->
        let run c = Sim.run c (Sim.basis_state ~n 0) in
        Array.for_all2
          (fun x y -> Mathkit.Cx.norm (Mathkit.Cx.sub x y) <= 1e-9)
          (run a) (run b))
  | Qmdd ->
    qmdd (fun () ->
        let m = Qmdd.create ~n and from = Array.make n false in
        let run c =
          Qmdd.run_basis ?node_budget:budget.node_budget
            ?deadline_ns:budget.deadline_ns m c ~from
        in
        Qmdd.equal (run a) (run b))

let give_up_to_string = function
  | Node_budget -> "QMDD node budget exhausted"
  | Deadline -> "wall-clock deadline exceeded"
  | Too_wide { qubits; cap } ->
    Printf.sprintf "%d qubits exceeds the %d-qubit dense-matrix oracle" qubits
      cap
  | Failed msg -> msg

let refusal = function
  | Equal -> None
  | Different -> Some "rejected by the equivalence oracle"
  | Gave_up r -> Some ("equivalence oracle gave up: " ^ give_up_to_string r)
