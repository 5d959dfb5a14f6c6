let default_jobs () =
  match Sys.getenv_opt "QSC_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)

let resolve_jobs = function
  | Some n -> if n >= 1 then n else 1
  | None -> default_jobs ()

(* One slot per task.  A slot holds the task's outcome; [Error] keeps
   the raw backtrace so a re-raise looks exactly like the original
   failure.  Slots are written by whichever domain claimed the index
   and read by the caller only after every domain has been joined, so
   the join is the only synchronization the slots need. *)
type 'b outcome = Done of 'b | Raised of exn * Printexc.raw_backtrace

let map ~jobs f xs =
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 then Array.map f xs
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let outcome =
            match f xs.(i) with
            | v -> Done v
            | exception e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          slots.(i) <- Some outcome;
          loop ()
        end
      in
      loop ()
    in
    (* Past the runtime's domain cap (128 per process), run on the
       domains spawned so far. *)
    let rec spawn acc k =
      if k = 0 then acc
      else
        match Domain.spawn worker with
        | d -> spawn (d :: acc) (k - 1)
        | exception Failure _ -> acc
    in
    let domains = spawn [] (min jobs n - 1) in
    (* The calling domain is pool member 0: it works instead of idling,
       and [jobs = 1] degenerates to the sequential loop above. *)
    let caller_failure =
      match worker () with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    List.iter Domain.join domains;
    (match caller_failure with
    | Some (e, bt) ->
      (* The worker loop itself never raises (task exceptions are
         captured into slots), so this is an engine bug; surface it. *)
      Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some (Done v) -> v
        | Some (Raised (e, bt)) ->
          (* First failing index wins: Array.map scans left to right,
             matching what a sequential run would have raised. *)
          Printexc.raise_with_backtrace e bt
        | None -> assert false)
      slots
  end

let map_list ~jobs f xs = Array.to_list (map ~jobs f (Array.of_list xs))
let init ~jobs n f = map ~jobs f (Array.init n Fun.id)
