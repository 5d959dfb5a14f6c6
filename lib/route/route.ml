exception Unroutable of string

(* Routing observability: filled in by the routers when the caller
   hands one over, untouched (and unallocated) otherwise. *)
type stats = {
  mutable rerouted_cnots : int;
  mutable reversed_cnots : int;
  mutable swaps_inserted : int;
  mutable swap_hops : int;
  mutable max_path_hops : int;
  mutable unrouted_cnots : int;
}

let new_stats () =
  {
    rerouted_cnots = 0;
    reversed_cnots = 0;
    swaps_inserted = 0;
    swap_hops = 0;
    max_path_hops = 0;
    unrouted_cnots = 0;
  }

let note stats f =
  match stats with
  | None -> ()
  | Some s -> f s

let ctr_path d ~control ~target =
  let n = Device.n_qubits d in
  if control = target then invalid_arg "Route.ctr_path: control = target";
  if control < 0 || control >= n || target < 0 || target >= n then
    invalid_arg "Route.ctr_path: qubit outside device";
  if Device.coupled d control target then [ control ]
  else begin
    (* Breadth-first search from the control over the undirected
       coupling graph; the goal is any qubit coupled with the target.
       This is the paper's connectivity tree: visiting a qubit twice
       would terminate the branch, which is exactly what the [parent]
       visited-marking does. *)
    let parent = Array.make n (-2) in
    parent.(control) <- -1;
    let queue = Queue.create () in
    Queue.add control queue;
    let rec search () =
      if Queue.is_empty queue then
        raise
          (Unroutable
             (Printf.sprintf "no SWAP path from q%d to q%d on %s" control
                target (Device.name d)))
      else
        let q = Queue.pop queue in
        if Device.coupled d q target then q
        else begin
          List.iter
            (fun nb ->
              if parent.(nb) = -2 && nb <> target then begin
                parent.(nb) <- q;
                Queue.add nb queue
              end)
            (Device.neighbors d q);
          search ()
        end
    in
    let goal = search () in
    let rec unwind q acc =
      if q = control then control :: acc else unwind parent.(q) (q :: acc)
    in
    unwind goal []
  end

(* Dijkstra over the undirected coupling graph.  The cost of a route is
   the sum of its SWAP-hop weights plus the weight of the final
   CNOT-adjacency hop onto the target, so cheap landings win over
   merely short ones. *)
let ctr_path_weighted d ~weight ~control ~target =
  let n = Device.n_qubits d in
  if control = target then invalid_arg "Route.ctr_path_weighted: control = target";
  if control < 0 || control >= n || target < 0 || target >= n then
    invalid_arg "Route.ctr_path_weighted: qubit outside device";
  if Device.coupled d control target then [ control ]
  else begin
    let dist = Array.make n infinity in
    let parent = Array.make n (-1) in
    let settled = Array.make n false in
    dist.(control) <- 0.0;
    let best_goal = ref (-1) and best_goal_cost = ref infinity in
    let rec step () =
      (* Smallest unsettled node; linear scan is fine at device sizes. *)
      let u = ref (-1) and du = ref infinity in
      for q = 0 to n - 1 do
        if (not settled.(q)) && dist.(q) < !du then begin
          u := q;
          du := dist.(q)
        end
      done;
      if !u >= 0 && !du < !best_goal_cost then begin
        settled.(!u) <- true;
        if Device.coupled d !u target then begin
          let goal_cost = !du +. weight !u target in
          if goal_cost < !best_goal_cost then begin
            best_goal_cost := goal_cost;
            best_goal := !u
          end
        end;
        List.iter
          (fun nb ->
            if nb <> target && not settled.(nb) then begin
              let cand = !du +. weight !u nb in
              if cand < dist.(nb) then begin
                dist.(nb) <- cand;
                parent.(nb) <- !u
              end
            end)
          (Device.neighbors d !u);
        step ()
      end
    in
    step ();
    if !best_goal < 0 then
      raise
        (Unroutable
           (Printf.sprintf "no SWAP path from q%d to q%d on %s" control target
              (Device.name d)))
    else begin
      let rec unwind q acc =
        if q = control then control :: acc else unwind parent.(q) (q :: acc)
      in
      unwind !best_goal []
    end
  end

let oriented_cnot ?stats d ~control ~target =
  if Device.allows_cnot d ~control ~target then [ Gate.Cnot { control; target } ]
  else if Device.allows_cnot d ~control:target ~target:control then begin
    note stats (fun s -> s.reversed_cnots <- s.reversed_cnots + 1);
    Decompose.cnot_reverse ~control ~target
  end
  else
    invalid_arg
      (Printf.sprintf "Route.oriented_cnot: q%d,q%d not coupled on %s" control
         target (Device.name d))

let rec swaps = function
  | a :: (b :: _ as rest) -> Gate.Swap (a, b) :: swaps rest
  | [ _ ] | [] -> []

(* The one per-CNOT step of both routers.  A coupled pair is only
   oriented.  Otherwise [find] gives the path, and the reroute is
   charged [2 * hops] SWAPs up front, under the budget rule of
   [route_circuit_swaps]: one SWAP per hop on the way there and one on
   the way back, whether CTR swaps straight back or the tracking router
   restores the layout at the end.  A reroute the budget cannot pay
   leaves the CNOT as written; one it can emits the forward chain, the
   CNOT from the landing qubit, and [back path]. *)
let reroute ?stats ?budget ~find ~back d ~control ~target =
  if Device.coupled d control target then oriented_cnot ?stats d ~control ~target
  else
    let path = find ~control ~target in
    let hops = List.length path - 1 in
    let fits =
      match budget with
      | Some remaining when 2 * hops > !remaining -> false
      | Some remaining ->
        remaining := !remaining - (2 * hops);
        true
      | None -> true
    in
    if not fits then begin
      note stats (fun s -> s.unrouted_cnots <- s.unrouted_cnots + 1);
      [ Gate.Cnot { control; target } ]
    end
    else begin
      note stats (fun s ->
          s.rerouted_cnots <- s.rerouted_cnots + 1;
          s.swap_hops <- s.swap_hops + hops;
          if hops > s.max_path_hops then s.max_path_hops <- hops;
          s.swaps_inserted <- s.swaps_inserted + (2 * hops));
      let landing = List.nth path hops in
      swaps path @ oriented_cnot ?stats d ~control:landing ~target @ back path
    end

(* The one walk of both routers over a native circuit: it checks the
   width, hands each CNOT to [cnot] (a simulator takes every CNOT as
   written) and each one-qubit gate to [one], and refuses the rest.
   [who] names the router in the errors. *)
let route_native ~who ~one ~cnot d c =
  let n = Device.n_qubits d in
  if Circuit.n_qubits c > n then
    invalid_arg
      (Printf.sprintf "Route.%s: circuit needs %d qubits but %s has %d" who
         (Circuit.n_qubits c) (Device.name d) n);
  Circuit.map_gates
    (fun g ->
      match g with
      | Gate.Cnot { control; target } when not (Device.is_simulator d) ->
        cnot ~control ~target
      | Gate.Cnot _ | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _
      | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _
      | Gate.Phase _ ->
        one g
      | Gate.Cz _ | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
        invalid_arg
          (Printf.sprintf "Route.%s: non-native gate %s" who (Gate.to_string g)))
    (Circuit.widen c n)

let budget_ref = function
  | None -> None
  | Some b -> Some (ref (max b 0))

let route_circuit_swaps ?stats ?swap_budget ?weight d c =
  let budget = budget_ref swap_budget in
  let find =
    match weight with
    | None -> ctr_path d
    | Some weight -> ctr_path_weighted d ~weight
  in
  let back path = swaps (List.rev path) in
  route_native ~who:"route_circuit" d c
    ~one:(fun g -> [ g ])
    ~cnot:(reroute ?stats ?budget ~find ~back d)

let expand_swaps d c =
  let allows = Device.allows_cnot d in
  Circuit.map_gates
    (function
      | Gate.Swap (a, b) when not (Device.is_simulator d) ->
        Decompose.swap_as_cnots ~allows a b
      | g -> [ g ])
    c

let route_circuit d c = expand_swaps d (route_circuit_swaps d c)

let route_circuit_tracking ?stats ?swap_budget d c =
  let budget = budget_ref swap_budget in
  let n = Device.n_qubits d in
  let phys_of_log = Array.init n Fun.id and log_of_phys = Array.init n Fun.id in
  let history = ref [] in
  (* The tracking router's way back: each forward SWAP moves the layout
     and is recorded, and nothing is emitted until the final restore. *)
  let rec move = function
    | p1 :: (p2 :: _ as rest) ->
      history := (p1, p2) :: !history;
      let l1 = log_of_phys.(p1) and l2 = log_of_phys.(p2) in
      log_of_phys.(p1) <- l2;
      log_of_phys.(p2) <- l1;
      phys_of_log.(l1) <- p2;
      phys_of_log.(l2) <- p1;
      move rest
    | [ _ ] | [] -> []
  in
  let routed =
    route_native ~who:"route_circuit_tracking" d c
      ~one:(fun g -> [ Gate.rename (fun q -> phys_of_log.(q)) g ])
      ~cnot:(fun ~control ~target ->
        reroute ?stats ?budget ~find:(ctr_path d) ~back:move d
          ~control:phys_of_log.(control) ~target:phys_of_log.(target))
  in
  (* Restore the original layout so the circuit computes the same
     unitary as the input: undo the swap history. *)
  Circuit.concat routed
    (Circuit.make ~n (List.map (fun (a, b) -> Gate.Swap (a, b)) !history))
