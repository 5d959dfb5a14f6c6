module J = Trace.Json

let protocol = "qsynth-serve/v1"
let cache_schema = "qsynth-serve-cache/v1"

(* --- daemon state -------------------------------------------------- *)

type entry = {
  payload : (string * J.t) list;
  code : int;
  bytes : int;  (** serialized payload size, charged against the byte budget *)
  mutable tick : int;
}

type t = {
  cache : (string, entry) Hashtbl.t;
  capacity : int;
  max_bytes : int;
  persist_dir : string option;
  max_deadline : float;
  max_frame_bytes : int;
  watchdog_grace : float;
  max_request_bytes : int option;
  read_timeout : float;
  max_workers : int;
  max_pending : int;
  jobs : int;  (** the most compiles this daemon runs at once *)
  slots : Semaphore.Counting.t;
      (** [jobs] slots; each queued or running compile holds one *)
  inject : (unit -> unit) option;
  (* [state_lock] guards the cache, [in_flight] and every counter
     (short sections, and waits on [landed]).  No lock is held while a
     compile runs. *)
  state_lock : Mutex.t;
  in_flight : (string, unit) Hashtbl.t;
      (** keys a one-shot miss is compiling; see [compile_with_cache] *)
  landed : Condition.t;  (** broadcast whenever a key leaves [in_flight] *)
  mutable clock : int;  (** LRU tick; bumped on every cache touch *)
  mutable cache_bytes : int;
  mutable requests : int;
  mutable lookups : int;  (** resolved cache consultations: hits + misses *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable warmed : int;
  mutable persist_errors : int;
  mutable shed : int;
  mutable drained : int;
  mutable watchdog_trips : int;
  mutable alloc_trips : int;
  mutable client_disconnects : int;
  mutable read_timeouts : int;
  mutable frame_rejects : int;
  mutable connections_served : int;
  mutable open_connections : int;
  mutable stop : bool;
}

exception Allocation_budget_exceeded of int

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let with_state t f = with_lock t.state_lock f

type counters = {
  requests : int;
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  resident : int;
  resident_bytes : int;
  warmed : int;
  persist_errors : int;
  shed : int;
  drained : int;
  watchdog_trips : int;
  alloc_trips : int;
  client_disconnects : int;
  read_timeouts : int;
  frame_rejects : int;
  connections_served : int;
  open_connections : int;
}

(* One lock acquisition for the whole snapshot: every field is read in
   the same critical section the workers write them in, so a snapshot
   can never be torn — [hits + misses = lookups] holds in every
   observation, even under full compile load. *)
let stats t =
  with_state t (fun () ->
      {
        requests = t.requests;
        lookups = t.lookups;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        resident = Hashtbl.length t.cache;
        resident_bytes = t.cache_bytes;
        warmed = t.warmed;
        persist_errors = t.persist_errors;
        shed = t.shed;
        drained = t.drained;
        watchdog_trips = t.watchdog_trips;
        alloc_trips = t.alloc_trips;
        client_disconnects = t.client_disconnects;
        read_timeouts = t.read_timeouts;
        frame_rejects = t.frame_rejects;
        connections_served = t.connections_served;
        open_connections = t.open_connections;
      })

let shutdown_requested t = t.stop

(* --- the persistent store ------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "" then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The cache key embeds a client-controlled format string, so the
   filename is its digest, never the key itself. *)
let persist_file dir key =
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".rpt")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic spill: write to a dot-prefixed temp in the same directory,
   flush + fsync, then rename over the final name.  A crash mid-write
   leaves only a stale temp (swept at the next warm load), never a
   torn [.rpt] that a restarted daemon could serve.  Called with
   [state_lock] held. *)
let persist_store t key (entry : entry) =
  match t.persist_dir with
  | None -> ()
  | Some dir -> (
    let file = persist_file dir key in
    let tmp =
      Filename.concat dir
        (Printf.sprintf ".tmp-%d-%s" (Unix.getpid ()) (Filename.basename file))
    in
    try
      let oc = open_out_bin tmp in
      (try
         output_string oc
           (J.to_string
              (J.Obj
                 [
                   ("schema", J.String cache_schema);
                   ("key", J.String key);
                   ("code", J.Int entry.code);
                   ("payload", J.Obj entry.payload);
                 ]));
         output_char oc '\n';
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc);
         close_out oc
       with e ->
         close_out_noerr oc;
         raise e);
      Unix.rename tmp file
    with Sys_error _ | Unix.Unix_error _ ->
      t.persist_errors <- t.persist_errors + 1;
      (try Sys.remove tmp with Sys_error _ -> ()))

let persist_remove t key =
  match t.persist_dir with
  | None -> ()
  | Some dir -> ( try Sys.remove (persist_file dir key) with Sys_error _ -> ())

(* --- the cache ----------------------------------------------------- *)

let touch t entry =
  t.clock <- t.clock + 1;
  entry.tick <- t.clock

let evict_lru t =
  (* O(n) min-scan; n is the cache capacity (hundreds), and eviction
     only runs on inserts that already paid for a full compile. *)
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.tick <= entry.tick -> acc
        | _ -> Some (key, entry))
      t.cache None
  in
  match victim with
  | Some (key, entry) ->
    Hashtbl.remove t.cache key;
    t.cache_bytes <- t.cache_bytes - entry.bytes;
    t.evictions <- t.evictions + 1;
    persist_remove t key
  | None -> ()

let over_budget t =
  (t.capacity > 0 && Hashtbl.length t.cache > t.capacity)
  || (t.max_bytes > 0 && t.cache_bytes > t.max_bytes)

let enforce_budgets t =
  while over_budget t && Hashtbl.length t.cache > 0 do
    evict_lru t
  done

(* Insert-then-evict: the fresh entry holds the newest LRU tick, so it
   is never the victim unless it alone exceeds the byte budget.  Called
   with [state_lock] held. *)
let cache_insert ?(persist = true) t key payload code =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.cache key with
    | Some old ->
      t.cache_bytes <- t.cache_bytes - old.bytes;
      Hashtbl.remove t.cache key
    | None -> ());
    let bytes = String.length (J.to_string (J.Obj payload)) in
    let entry = { payload; code; bytes; tick = 0 } in
    touch t entry;
    Hashtbl.replace t.cache key entry;
    t.cache_bytes <- t.cache_bytes + bytes;
    enforce_budgets t;
    if persist && Hashtbl.mem t.cache key then persist_store t key entry
  end

(* Warm the cache from a prior daemon's spill directory: sweep stale
   temps, then re-insert every valid report oldest-mtime first so the
   LRU order roughly survives the restart.  Torn or alien files are
   deleted, never served. *)
let warm_from_disk t =
  match t.persist_dir with
  | None -> ()
  | Some _ when t.capacity = 0 -> ()
  | Some dir ->
    (try mkdir_p dir
     with Sys_error _ | Unix.Unix_error _ ->
       t.persist_errors <- t.persist_errors + 1);
    let names = try Sys.readdir dir with Sys_error _ -> [||] in
    Array.iter
      (fun name ->
        if String.length name >= 5 && String.sub name 0 5 = ".tmp-" then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      names;
    let reports =
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".rpt")
      |> List.filter_map (fun n ->
             let path = Filename.concat dir n in
             match Unix.stat path with
             | st -> Some (path, st.Unix.st_mtime)
             | exception Unix.Unix_error _ -> None)
      |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
    in
    List.iter
      (fun (path, _) ->
        let drop () =
          t.persist_errors <- t.persist_errors + 1;
          try Sys.remove path with Sys_error _ -> ()
        in
        match read_file path with
        | exception Sys_error _ -> drop ()
        | text -> (
          match J.of_string (String.trim text) with
          | Error _ -> drop ()
          | Ok j -> (
            match
              ( J.member "schema" j,
                J.member "key" j,
                J.member "code" j,
                J.member "payload" j )
            with
            | ( Some (J.String schema),
                Some (J.String key),
                Some (J.Int code),
                Some (J.Obj payload) )
              when schema = cache_schema ->
              cache_insert ~persist:false t key payload code;
              if Hashtbl.mem t.cache key then t.warmed <- t.warmed + 1
            | _ -> drop ())))
      reports

let create ?(cache_capacity = 256) ?(max_cache_bytes = 64 * 1024 * 1024)
    ?persist_dir ?(max_deadline_seconds = 60.0)
    ?(max_frame_bytes = 4 * 1024 * 1024) ?(watchdog_grace_seconds = 5.0)
    ?max_request_bytes ?(read_timeout_seconds = 30.0) ?(max_workers = 8)
    ?(max_pending = 32) ?(jobs = Domain.recommended_domain_count ())
    ?inject () =
  if cache_capacity < 0 then
    invalid_arg "Serve.create: negative cache_capacity";
  if max_cache_bytes < 0 then
    invalid_arg "Serve.create: negative max_cache_bytes";
  if max_deadline_seconds <= 0.0 then
    invalid_arg "Serve.create: max_deadline_seconds must be positive";
  if max_frame_bytes <= 0 then
    invalid_arg "Serve.create: max_frame_bytes must be positive";
  if watchdog_grace_seconds < 0.0 then
    invalid_arg "Serve.create: negative watchdog_grace_seconds";
  (match max_request_bytes with
  | Some n when n <= 0 ->
    invalid_arg "Serve.create: max_request_bytes must be positive"
  | _ -> ());
  if read_timeout_seconds <= 0.0 then
    invalid_arg "Serve.create: read_timeout_seconds must be positive";
  if max_workers < 1 then invalid_arg "Serve.create: max_workers must be >= 1";
  if max_pending < 1 then invalid_arg "Serve.create: max_pending must be >= 1";
  if jobs < 1 then invalid_arg "Serve.create: jobs must be >= 1";
  let t =
    {
      cache = Hashtbl.create (max 16 cache_capacity);
      capacity = cache_capacity;
      max_bytes = max_cache_bytes;
      persist_dir;
      max_deadline = max_deadline_seconds;
      max_frame_bytes;
      watchdog_grace = watchdog_grace_seconds;
      max_request_bytes;
      read_timeout = read_timeout_seconds;
      max_workers;
      max_pending;
      jobs;
      slots = Semaphore.Counting.make jobs;
      inject;
      state_lock = Mutex.create ();
      in_flight = Hashtbl.create 16;
      landed = Condition.create ();
      clock = 0;
      cache_bytes = 0;
      requests = 0;
      lookups = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      warmed = 0;
      persist_errors = 0;
      shed = 0;
      drained = 0;
      watchdog_trips = 0;
      alloc_trips = 0;
      client_disconnects = 0;
      read_timeouts = 0;
      frame_rejects = 0;
      connections_served = 0;
      open_connections = 0;
      stop = false;
    }
  in
  warm_from_disk t;
  t

(* --- protocol errors ----------------------------------------------- *)

(* Carries the response code alongside the diagnostic; code 124 is
   protocol misuse (the CLI's command-line-misuse lane), 123 a reported
   failure. *)
exception Reject of int * Diagnostic.t

let misuse msg =
  raise
    (Reject
       ( 124,
         Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Protocol
           msg ))

let missing_field msg =
  raise
    (Reject
       ( 123,
         Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Protocol
           msg ))

(* --- request field readers ----------------------------------------- *)

let expect_obj what = function
  | J.Obj fields -> fields
  | _ -> misuse (Printf.sprintf "%s must be a JSON object" what)

let get_string key j =
  match J.member key j with
  | Some (J.String s) -> Some s
  | Some _ -> misuse (Printf.sprintf "field %S must be a string" key)
  | None -> None

let as_int key = function
  | J.Int i -> i
  | J.Float f when Float.is_integer f -> int_of_float f
  | _ -> misuse (Printf.sprintf "option %S must be an integer" key)

let as_number key = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> misuse (Printf.sprintf "option %S must be a number" key)

let as_bool key = function
  | J.Bool b -> b
  | _ -> misuse (Printf.sprintf "option %S must be a boolean" key)

(* --- compile request ----------------------------------------------- *)

type request = {
  source : string;
  format : string;
  device : Device.t;
  options : Compiler.options;
}

(* Mirrors the CLI defaults ([qsc compile] with no flags beyond the
   device) so a served report matches a one-shot compile byte for
   byte. *)
let apply_options device opts_json =
  let node_budget = ref (Some 8_000_000) in
  let max_sim_qubits = ref 10 in
  let verify_tag = ref "fallback" in
  let deadline = ref None in
  let options = ref (Compiler.default_options ~device) in
  let set f = options := f !options in
  List.iter
    (fun (key, value) ->
      match key with
      | "pre_optimize" ->
        let b = as_bool key value in
        set (fun o -> { o with Compiler.pre_optimize = b })
      | "post_optimize" ->
        let b = as_bool key value in
        set (fun o -> { o with Compiler.post_optimize = b })
      | "fold_states" ->
        let b = as_bool key value in
        set (fun o -> { o with Compiler.fold_states = b })
      | "use_placement" ->
        let b = as_bool key value in
        set (fun o -> { o with Compiler.use_placement = b })
      | "check_contracts" ->
        let b = as_bool key value in
        set (fun o -> { o with Compiler.check_contracts = b })
      | "verification" -> (
        match value with
        | J.String (("skip" | "qmdd" | "fallback") as s) -> verify_tag := s
        | _ -> misuse "option \"verification\" must be skip|qmdd|fallback")
      | "node_budget" ->
        let n = as_int key value in
        node_budget := (if n = 0 then None else Some n)
      | "max_sim_qubits" -> max_sim_qubits := as_int key value
      | "deadline_seconds" ->
        let d = as_number key value in
        if d <= 0.0 then misuse "option \"deadline_seconds\" must be positive";
        deadline := Some d
      | "max_optimize_iterations" ->
        let n = as_int key value in
        set (fun o ->
            {
              o with
              Compiler.budgets =
                {
                  o.Compiler.budgets with
                  Compiler.max_optimize_iterations = Some n;
                };
            })
      | "swap_budget" ->
        let n = as_int key value in
        set (fun o ->
            {
              o with
              Compiler.budgets =
                { o.Compiler.budgets with Compiler.swap_budget = Some n };
            })
      | other -> misuse (Printf.sprintf "unknown option %S" other))
    opts_json;
  let verification =
    match !verify_tag with
    | "skip" -> Compiler.Skip
    | "qmdd" -> Compiler.Qmdd_check { node_budget = !node_budget }
    | _ ->
      Compiler.Fallback
        { node_budget = !node_budget; max_sim_qubits = !max_sim_qubits }
  in
  set (fun o -> { o with Compiler.verification });
  (!options, !deadline)

let parse_compile_request t j =
  let _ = expect_obj "a compile request" j in
  let source =
    match get_string "source" j with
    | Some s -> s
    | None -> missing_field "compile request is missing \"source\""
  in
  let format =
    match get_string "format" j with Some f -> f | None -> "qasm"
  in
  let device_name =
    match get_string "device" j with
    | Some d -> d
    | None -> missing_field "compile request is missing \"device\""
  in
  let device =
    match Device.find device_name with
    | d -> d
    | exception Not_found ->
      misuse
        (Printf.sprintf "unknown device %S (see `qsc devices')" device_name)
  in
  let opts_json =
    match J.member "options" j with
    | None -> []
    | Some o -> expect_obj "\"options\"" o
  in
  let options, requested_deadline = apply_options device opts_json in
  (* A daemon never hangs forever on one compile: requests are clamped
     to the server-side maximum, and requests that ask for no budget
     get the maximum. *)
  let deadline_seconds =
    match requested_deadline with
    | Some d -> Some (Float.min d t.max_deadline)
    | None -> Some t.max_deadline
  in
  let options =
    {
      options with
      Compiler.budgets =
        { options.Compiler.budgets with Compiler.deadline_seconds };
    }
  in
  { source; format; device; options }

(* --- report scrubbing ---------------------------------------------- *)

(* The only volatile fields in a report are its two timings; nulling
   them makes the payload a pure function of the cache key, so cache
   hits are byte-identical to misses.  Live timing lives in the
   response envelope instead. *)
let scrub_report = function
  | J.Obj fields ->
    J.Obj
      (List.map
         (fun (k, v) ->
           match k with
           | "elapsed_seconds" | "verification_seconds" -> (k, J.Null)
           | _ -> (k, v))
         fields)
  | other -> other

let cache_key req =
  String.concat ":"
    [
      Compiler.source_digest req.source;
      String.lowercase_ascii req.format;
      Compiler.device_digest req.device;
      Compiler.options_digest req.options;
    ]

(* --- the allocation budget ----------------------------------------- *)

(* Bound one request's heap appetite without being able to kill a
   thread: a [Gc] alarm (runs at the end of major cycles) compares the
   domain's allocation counter against the budget and raises inside
   the compile, and the counter is checked once more when the compile
   ends.  Both are the compile domain's own, and a pool domain runs one
   compile at a time, so the counter measures this compile alone.  The
   final check matters: while another domain is blocked, allocating
   large blocks does not by itself drive a major cycle to its end, so
   a compile that allocates mostly large blocks may finish before any
   alarm runs.  [Compiler.compile_checked] converts
   in-flight exceptions to diagnostics, so [tripped] re-raises after
   the thunk — a budgeted request can never smuggle its result out.
   The alarm is a circuit breaker, not an accountant: it samples at
   major-cycle granularity. *)
let guarded_allocation t f =
  match t.max_request_bytes with
  | None -> f ()
  | Some budget ->
    let start = Gc.allocated_bytes () in
    let over () = Gc.allocated_bytes () -. start > float_of_int budget in
    let armed = ref true in
    let tripped = ref false in
    let alarm =
      Gc.create_alarm (fun () ->
          if !armed && over () then begin
            armed := false;
            tripped := true;
            raise (Allocation_budget_exceeded budget)
          end)
    in
    let result =
      Fun.protect
        ~finally:(fun () ->
          armed := false;
          Gc.delete_alarm alarm)
        f
    in
    if !tripped || over () then raise (Allocation_budget_exceeded budget);
    result

(* --- the compile pool ---------------------------------------------- *)

(* Every compile runs on a domain of one process-wide pool, so the
   daemon's sys-threads only move bytes, supervise and wait.  The pool
   is process-wide because OCaml caps a process at 128 domains and
   tests and the fuzzer build thousands of daemons in one process.  It
   starts with the first compile, grows to the largest [jobs] any
   daemon asked for, and never shrinks.  A domain runs one compile at
   a time, so its GC alarm measures that compile alone.  Spawning a
   domain per compile instead was slower and raised serve-mixed's peak
   RSS by a quarter (EXPERIMENTS.md). *)
module Pool = struct
  let lock = Mutex.create ()
  let work = Condition.create ()
  let queue : (unit -> unit) Queue.t = Queue.create ()
  let domains = ref 0

  (* The pool size at which the runtime refused another domain (OCaml
     caps a process at 128), after which queued compiles wait for the
     domains the pool has. *)
  let ceiling = ref max_int

  (* Jobs never raise: [start] wraps each one. *)
  let rec worker () =
    let job =
      Mutex.protect lock (fun () ->
          while Queue.is_empty queue do
            Condition.wait work lock
          done;
          Queue.pop queue)
    in
    job ();
    worker ()

  let submit ~domains:wanted job =
    Mutex.protect lock (fun () ->
        (try
           while !domains < min wanted !ceiling do
             ignore (Domain.spawn worker : _ Domain.t);
             incr domains
           done
         with Failure _ when !domains > 0 -> ceiling := !domains);
        Queue.push job queue;
        Condition.signal work)
end

(* A compile submitted to the pool.  [await] blocks on [finished] (a
   mutex and a condition), which frees the submitting thread's domain
   for I/O. *)
type 'a pending = {
  finished : Semaphore.Binary.t;  (** released once [outcome] is set *)
  mutable outcome : ('a, exn * Printexc.raw_backtrace) result option;
}

(* Queue [f] behind one of [t]'s [jobs] slots.  The slot then belongs
   to the compile, which releases it when it ends, so a thread never
   holds a slot while it waits for another. *)
let start t f =
  Semaphore.Counting.acquire t.slots;
  let p = { finished = Semaphore.Binary.make false; outcome = None } in
  let job () =
    p.outcome <-
      Some
        (match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()));
    Semaphore.Counting.release t.slots;
    Semaphore.Binary.release p.finished
  in
  (try Pool.submit ~domains:t.jobs job
   with e ->
     Semaphore.Counting.release t.slots;
     raise e);
  p

(* The compile's result, or its exception re-raised in this thread. *)
let await p =
  Semaphore.Binary.acquire p.finished;
  match p.outcome with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None -> assert false

(* --- compile ------------------------------------------------------- *)

let diagnostics_json ds = J.List (List.map Diagnostic.to_json ds)

(* A resolved cache consultation: a hit bumps [hits] and [lookups] in
   one critical section; a miss bumps [misses] and [lookups] in one, so
   [hits + misses = lookups] holds at every instant.  Called with
   [state_lock] held. *)
let count_hit (t : t) entry =
  t.lookups <- t.lookups + 1;
  t.hits <- t.hits + 1;
  touch t entry;
  (entry.code, entry.payload @ [ ("cached", J.Bool true) ])

let count_miss (t : t) =
  t.lookups <- t.lookups + 1;
  t.misses <- t.misses + 1

let cache_lookup t key =
  with_state t (fun () ->
      Option.map (count_hit t) (Hashtbl.find_opt t.cache key))

let record_miss t = with_state t (fun () -> count_miss t)

(* The pure compile core: no cache access, no locks.  Runs on a pool
   domain (see [start]). *)
let compile_uncached t req =
  guarded_allocation t (fun () ->
      (match t.inject with Some f -> f () | None -> ());
      match Compiler.parse_source_checked ~format:req.format req.source with
      | Error d -> Error [ d ]
      | Ok input -> Compiler.compile_checked req.options input)

let outcome_response req = function
  | Error ds ->
    (* Failures are cheap to recompute and usually get fixed and
       resubmitted; only completed reports are worth cache slots. *)
    `Fail
      (123, [ ("status", J.String "error"); ("diagnostics", diagnostics_json ds) ])
  | Ok report ->
    let mismatch = report.Compiler.verification = Compiler.Mismatch in
    let code = if mismatch then 123 else 0 in
    let payload =
      [
        ("status", J.String (if mismatch then "mismatch" else "ok"));
        ( "report",
          scrub_report
            (Compiler.report_to_json ~cost:req.options.Compiler.cost report) );
      ]
    in
    `Report (code, payload)

(* Miss path tail shared by one-shot compiles and batch lanes: render
   the outcome, cache completed reports.  The caller has already
   counted the miss (before compiling, so an allocation trip still
   counts it). *)
let finish_miss t key req outcome =
  match outcome_response req outcome with
  | `Fail (code, body) -> (code, body)
  | `Report (code, payload) ->
    with_state t (fun () -> cache_insert t key payload code);
    (code, payload @ [ ("cached", J.Bool false) ])

(* Racing misses coalesce: a miss registers its key in [in_flight], in
   the critical section that found the cache without it, and compiles
   with no lock held.  A request for a registered key waits until the
   key leaves, then looks again: it takes the cached report as a hit,
   or, when the outcome was not cached (a diagnostic, an exception),
   becomes the next miss. *)
let compile_with_cache t req key =
  let rec claim () =
    match Hashtbl.find_opt t.cache key with
    | Some entry -> Some (count_hit t entry)
    | None when Hashtbl.mem t.in_flight key ->
      Condition.wait t.landed t.state_lock;
      claim ()
    | None ->
      Hashtbl.replace t.in_flight key ();
      count_miss t;
      None
  in
  match with_state t claim with
  | Some hit -> hit
  | None ->
    Fun.protect
      ~finally:(fun () ->
        with_state t (fun () ->
            Hashtbl.remove t.in_flight key;
            Condition.broadcast t.landed))
      (fun () ->
        let outcome = await (start t (fun () -> compile_uncached t req)) in
        finish_miss t key req outcome)

(* Returns the response code and body fields for one compile request. *)
let run_compile t j =
  let req = parse_compile_request t j in
  compile_with_cache t req (cache_key req)

(* --- dispatch ------------------------------------------------------ *)

let envelope ?id ~code ~seconds body =
  J.to_string
    (J.Obj
       ([ ("protocol", J.String protocol) ]
       @ (match id with Some v -> [ ("id", v) ] | None -> [])
       @ [ ("ok", J.Bool (code = 0)); ("code", J.Int code) ]
       @ body
       @ [ ("seconds", J.Float seconds) ]))

let stats_body t =
  let c = stats t in
  [
    ( "stats",
      J.Obj
        [
          ("requests", J.Int c.requests);
          ( "cache",
            J.Obj
              [
                ("size", J.Int c.resident);
                ("capacity", J.Int t.capacity);
                ("bytes", J.Int c.resident_bytes);
                ("max_bytes", J.Int t.max_bytes);
                ("lookups", J.Int c.lookups);
                ("hits", J.Int c.hits);
                ("misses", J.Int c.misses);
                ("evictions", J.Int c.evictions);
                ("warmed", J.Int c.warmed);
              ] );
          ( "overload",
            J.Obj
              [
                ("shed", J.Int c.shed);
                ("drained", J.Int c.drained);
                ("max_workers", J.Int t.max_workers);
                ("jobs", J.Int t.jobs);
                ("max_pending", J.Int t.max_pending);
              ] );
          ( "supervision",
            J.Obj
              [
                ("watchdog_trips", J.Int c.watchdog_trips);
                ("alloc_trips", J.Int c.alloc_trips);
              ] );
          ( "connections",
            J.Obj
              [
                ("served", J.Int c.connections_served);
                ("open", J.Int c.open_connections);
                ("disconnects", J.Int c.client_disconnects);
                ("read_timeouts", J.Int c.read_timeouts);
                ("frame_rejects", J.Int c.frame_rejects);
              ] );
          ( "persist",
            J.Obj
              [
                ("enabled", J.Bool (t.persist_dir <> None));
                ("errors", J.Int c.persist_errors);
              ] );
        ] );
  ]

let internal_error_body msg =
  [
    ("status", J.String "error");
    ( "diagnostics",
      diagnostics_json
        [
          Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Internal
            msg;
        ] );
  ]

let alloc_trip t budget =
  with_state t (fun () -> t.alloc_trips <- t.alloc_trips + 1);
  ( 125,
    internal_error_body
      (Printf.sprintf
         "request exceeded the per-request allocation budget (%d bytes); \
          worker recycled"
         budget) )

(* One entry of a batch: same shape as a compile response, minus the
   envelope (protocol/seconds live on the enclosing frame). *)
let entry_of_response (code, body) =
  J.Obj ([ ("ok", J.Bool (code = 0)); ("code", J.Int code) ] @ body)

let reject_entry code d =
  J.Obj
    [
      ("ok", J.Bool false);
      ("code", J.Int code);
      ("status", J.String "error");
      ("diagnostics", diagnostics_json [ d ]);
    ]

let alloc_entry t budget =
  let code, body = alloc_trip t budget in
  J.Obj ([ ("ok", J.Bool false); ("code", J.Int code) ] @ body)

let batch_entry t j =
  match run_compile t j with
  | response -> entry_of_response response
  | exception Reject (code, d) -> reject_entry code d
  | exception Allocation_budget_exceeded budget -> alloc_entry t budget

(* Parallel batch.  Only the pure compiles fan out: the cache
   protocol is replayed strictly sequentially in request order
   (phase 3), so response bytes, counters and LRU order are identical
   to a sequential run of the same batch on an idle server.

   Phase 1 parses every lane and predicts which distinct keys a
   sequential run would have to compile (first occurrence of a key not
   already cached).  Phase 2 submits exactly those to the compile
   pool, up to [jobs] at once, and waits for them.  Phase 3 walks the
   lanes in order running the normal lookup/miss protocol,
   substituting a precomputed outcome where one exists; a predicted
   hit whose entry was evicted in the meantime simply falls back to
   the sequential inline path, so correctness never depends on the
   prediction. *)
let batch_parallel t requests =
  let lanes =
    List.map
      (fun rj ->
        match parse_compile_request t rj with
        | req -> `Parsed (req, cache_key req)
        | exception Reject (code, d) -> `Rejected (code, d))
      requests
  in
  let to_compile = Hashtbl.create 16 in
  with_state t (fun () ->
      List.iter
        (function
          | `Rejected _ -> ()
          | `Parsed (req, key) ->
            if
              (not (Hashtbl.mem t.cache key))
              && not (Hashtbl.mem to_compile key)
            then Hashtbl.add to_compile key req)
        lanes);
  let missing =
    Hashtbl.fold (fun key req acc -> (key, req) :: acc) to_compile []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let precomputed = Hashtbl.create 16 in
  List.map
    (fun (key, req) ->
      ( key,
        start t (fun () ->
            match compile_uncached t req with
            | outcome -> `Outcome outcome
            | exception Allocation_budget_exceeded budget -> `Alloc budget) ))
    missing
  |> List.iter (fun (key, p) -> Hashtbl.replace precomputed key (await p));
  List.map
    (function
      | `Rejected (code, d) -> reject_entry code d
      | `Parsed (req, key) -> (
        match cache_lookup t key with
        | Some response -> entry_of_response response
        | None -> (
          match Hashtbl.find_opt precomputed key with
          | Some (`Alloc budget) ->
            (* Sequential order: the miss is counted, then the compile
               trips the allocation breaker. *)
            record_miss t;
            alloc_entry t budget
          | Some (`Outcome outcome) ->
            record_miss t;
            entry_of_response (finish_miss t key req outcome)
          | None -> (
            (* Predicted hit evicted mid-batch: compile inline exactly
               as the sequential run would. *)
            match compile_with_cache t req key with
            | response -> entry_of_response response
            | exception Allocation_budget_exceeded budget ->
              alloc_entry t budget))))
    lanes

let run_batch t j =
  let requests =
    match J.member "requests" j with
    | Some (J.List l) -> l
    | Some _ -> misuse "field \"requests\" must be a list"
    | None -> missing_field "batch request is missing \"requests\""
  in
  let results =
    if t.jobs <= 1 then List.map (batch_entry t) requests
    else batch_parallel t requests
  in
  let code_of = function
    | J.Obj fields -> (
      match List.assoc_opt "code" fields with Some (J.Int c) -> c | _ -> 125)
    | _ -> 125
  in
  let codes = List.map code_of results in
  let failed = List.length (List.filter (fun c -> c <> 0) codes) in
  (* Aggregate severity mirrors the CLI: all-clean is 0, otherwise the
     worst lane that occurred (internal > misuse > reported). *)
  let code = List.fold_left max 0 codes in
  ( code,
    [
      ("total", J.Int (List.length results));
      ("failed", J.Int failed);
      ("results", J.List results);
    ] )

let dispatch t j =
  match get_string "op" j with
  | Some "ping" -> (0, [ ("pong", J.Bool true) ])
  | Some "stats" -> (0, stats_body t)
  | Some "shutdown" ->
    with_state t (fun () -> t.stop <- true);
    (0, [ ("stopping", J.Bool true) ])
  | Some "compile" -> run_compile t j
  | Some "batch" -> run_batch t j
  | Some other -> misuse (Printf.sprintf "unknown op %S" other)
  | None -> missing_field "request is missing \"op\""

let handle_line_core t line =
  let t0 = Trace.now_ns () in
  with_state t (fun () -> t.requests <- t.requests + 1);
  let id, (code, body) =
    match J.of_string line with
    | Error msg -> (
      ( None,
        try misuse (Printf.sprintf "unparseable request: %s" msg)
        with Reject (code, d) ->
          ( code,
            [
              ("status", J.String "error");
              ("diagnostics", diagnostics_json [ d ]);
            ] ) ))
    | Ok j -> (
      let id = match j with J.Obj _ -> J.member "id" j | _ -> None in
      ( id,
        match
          dispatch t
            (match j with
            | J.Obj _ -> j
            | _ -> misuse "request must be a JSON object")
        with
        | result -> result
        | exception Reject (code, d) ->
          ( code,
            [
              ("status", J.String "error");
              ("diagnostics", diagnostics_json [ d ]);
            ] )
        | exception Allocation_budget_exceeded budget -> alloc_trip t budget
        | exception exn ->
          ( 125,
            internal_error_body
              (Printf.sprintf "unexpected exception: %s"
                 (Printexc.to_string exn)) ) ))
  in
  let seconds = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9 in
  envelope ?id ~code ~seconds body

let frame_reject_body t =
  [
    ("status", J.String "error");
    ( "diagnostics",
      diagnostics_json
        [
          Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Protocol
            (Printf.sprintf "request line exceeds the %d-byte frame cap"
               t.max_frame_bytes);
        ] );
  ]

let handle_line t line =
  (* The frame cap comes first: an over-long line is answered without
     ever being parsed (or buffered further by the socket layer). *)
  if String.length line > t.max_frame_bytes then begin
    with_state t (fun () ->
        t.requests <- t.requests + 1;
        t.frame_rejects <- t.frame_rejects + 1);
    envelope ~code:124 ~seconds:0.0 (frame_reject_body t)
  end
  else
    try handle_line_core t line
    with exn ->
      (* [handle_line_core] already converts everything it can; this is
         the last-resort 125 lane (e.g. Out_of_memory). *)
      envelope ~code:125 ~seconds:0.0
        (internal_error_body
           (Printf.sprintf "unexpected exception: %s" (Printexc.to_string exn)))

(* --- supervision --------------------------------------------------- *)

let request_id_of_line line =
  match J.of_string line with
  | Ok (J.Obj _ as j) -> J.member "id" j
  | Ok _ | Error _ -> None

(* OCaml threads cannot be killed, so a wedged request is abandoned,
   not stopped: its late result is discarded (a late cache insert is
   still kept — it can only help), the supervisor answers 125 on its
   behalf, and the next request gets a fresh worker thread. *)
let handle_line_supervised t line =
  if t.watchdog_grace <= 0.0 then handle_line t line
  else begin
    let result = ref None in
    let result_lock = Mutex.create () in
    let abandoned = ref false in
    let (_ : Thread.t) =
      Thread.create
        (fun () ->
          let response = handle_line t line in
          Mutex.lock result_lock;
          if not !abandoned then result := Some response;
          Mutex.unlock result_lock)
        ()
    in
    let deadline = t.max_deadline +. t.watchdog_grace in
    let t0 = Unix.gettimeofday () in
    let delay = ref 0.0003 in
    let rec wait () =
      Mutex.lock result_lock;
      let r = !result in
      Mutex.unlock result_lock;
      match r with
      | Some response -> response
      | None ->
        if Unix.gettimeofday () -. t0 >= deadline then begin
          Mutex.lock result_lock;
          abandoned := true;
          let late = !result in
          Mutex.unlock result_lock;
          match late with
          | Some response -> response
          | None ->
            with_state t (fun () -> t.watchdog_trips <- t.watchdog_trips + 1);
            let id = request_id_of_line line in
            envelope ?id ~code:125 ~seconds:deadline
              (internal_error_body
                 (Printf.sprintf
                    "watchdog: request exceeded the %.3gs deadline; abandoned \
                     and the worker recycled"
                    deadline))
        end
        else begin
          Thread.delay !delay;
          delay := Float.min 0.004 (!delay *. 1.7);
          wait ()
        end
    in
    wait ()
  end

(* --- the socket layer ---------------------------------------------- *)

type address = Unix_socket of string | Tcp of { host : string; port : int }

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of_address = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp { host; port } ->
    (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))

let refusal_line status extra =
  envelope ~code:123 ~seconds:0.0 (("status", J.String status) :: extra)

(* Write the whole response on the raw fd.  A client that vanished
   ([EPIPE]/[ECONNRESET]) or stopped reading (the [SO_SNDTIMEO] set per
   connection surfaces as [EAGAIN]) degrades that connection only. *)
let write_all t conn s =
  let len = String.length s in
  try
    let rec go off =
      if off < len then
        match Unix.write_substring conn s off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0;
    true
  with Unix.Unix_error _ ->
    with_state t (fun () -> t.client_disconnects <- t.client_disconnects + 1);
    false

let serve ?max_requests t address =
  let domain, sockaddr = sockaddr_of_address address in
  (match address with
  | Unix_socket path -> (
    try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ())
  | Tcp _ -> ());
  (* A client closing mid-response must surface as EPIPE on the write,
     never as a process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  let served = ref 0 in
  let served_lock = Mutex.create () in
  let finished () =
    shutdown_requested t
    ||
    match max_requests with
    | Some n ->
      Mutex.lock served_lock;
      let done_ = !served >= n in
      Mutex.unlock served_lock;
      done_
    | None -> false
  in
  let bump_served () =
    Mutex.lock served_lock;
    incr served;
    Mutex.unlock served_lock
  in
  (* Admission control: accepted connections pass through a bounded
     queue into a fixed worker pool.  The accept loop sheds beyond the
     queue bound; the pool never grows. *)
  let pending : Unix.file_descr Queue.t = Queue.create () in
  let pending_lock = Mutex.create () in
  let pop_pending () =
    Mutex.lock pending_lock;
    let conn =
      if Queue.is_empty pending then None else Some (Queue.pop pending)
    in
    Mutex.unlock pending_lock;
    conn
  in
  let close_quiet conn = try Unix.close conn with Unix.Unix_error _ -> () in
  let set_send_timeout conn =
    try Unix.setsockopt_float conn Unix.SO_SNDTIMEO t.read_timeout
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  in
  let refuse_draining conn =
    set_send_timeout conn;
    ignore (write_all t conn (refusal_line "draining" [] ^ "\n"));
    close_quiet conn;
    with_state t (fun () -> t.drained <- t.drained + 1)
  in
  let shed conn depth =
    set_send_timeout conn;
    let retry_after_ms = min 1000 (50 * (depth + 1)) in
    ignore
      (write_all t conn
         (refusal_line "overloaded"
            [ ("retry_after_ms", J.Int retry_after_ms) ]
         ^ "\n"));
    close_quiet conn;
    with_state t (fun () -> t.shed <- t.shed + 1)
  in
  let admit conn =
    Mutex.lock pending_lock;
    let depth = Queue.length pending in
    if depth >= t.max_pending then begin
      Mutex.unlock pending_lock;
      shed conn depth
    end
    else begin
      Queue.push conn pending;
      Mutex.unlock pending_lock
    end
  in
  let handle_connection conn =
    with_state t (fun () ->
        t.open_connections <- t.open_connections + 1;
        t.connections_served <- t.connections_served + 1);
    Fun.protect
      ~finally:(fun () ->
        close_quiet conn;
        with_state t (fun () ->
            t.open_connections <- t.open_connections - 1))
      (fun () ->
        set_send_timeout conn;
        (* Bytes read but not yet returned as a frame; the first
           [!scanned] of them hold no newline.  Appending to a buffer
           keeps a frame's cost linear in its size. *)
        let pending_bytes = Buffer.create 8192 in
        let scanned = ref 0 in
        let chunk = Bytes.create 8192 in
        let rec newline_from i =
          if i >= Buffer.length pending_bytes then None
          else if Buffer.nth pending_bytes i = '\n' then Some i
          else newline_from (i + 1)
        in
        (* Bounded frame reader: accumulate until a newline, a read
           deadline, the frame cap (with no newline in sight — the
           connection cannot be resynced, so it is answered and
           closed), EOF, or drain. *)
        let next_frame () =
          let deadline_at = Unix.gettimeofday () +. t.read_timeout in
          let rec go () =
            match newline_from !scanned with
            | Some i ->
              let line = Buffer.sub pending_bytes 0 i in
              let rest =
                Buffer.sub pending_bytes (i + 1)
                  (Buffer.length pending_bytes - i - 1)
              in
              Buffer.reset pending_bytes;
              Buffer.add_string pending_bytes rest;
              scanned := 0;
              `Frame line
            | None ->
              scanned := Buffer.length pending_bytes;
              if !scanned > t.max_frame_bytes then `Too_long
              else if finished () then `Draining
              else begin
                let now = Unix.gettimeofday () in
                if now >= deadline_at then `Timeout
                else begin
                  let tick = Float.min 0.2 (deadline_at -. now) in
                  match Unix.select [ conn ] [] [] tick with
                  | [], _, _ -> go ()
                  | _ :: _, _, _ -> (
                    match Unix.read conn chunk 0 (Bytes.length chunk) with
                    | 0 -> `Eof
                    | n ->
                      Buffer.add_subbytes pending_bytes chunk 0 n;
                      go ()
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
                    | exception Unix.Unix_error _ -> `Eof)
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
                end
              end
          in
          go ()
        in
        let rec loop () =
          if not (finished ()) then
            match next_frame () with
            | `Frame line ->
              let response = handle_line_supervised t line in
              if write_all t conn (response ^ "\n") then begin
                bump_served ();
                loop ()
              end
            | `Too_long ->
              with_state t (fun () -> t.frame_rejects <- t.frame_rejects + 1);
              ignore
                (write_all t conn
                   (envelope ~code:124 ~seconds:0.0 (frame_reject_body t)
                   ^ "\n"))
            | `Timeout ->
              with_state t (fun () -> t.read_timeouts <- t.read_timeouts + 1)
            | `Eof | `Draining -> ()
        in
        loop ())
  in
  let worker () =
    let rec loop () =
      match pop_pending () with
      | Some conn ->
        (* A connection still queued at drain time is refused, never
           served: only in-flight requests ride out the shutdown. *)
        if finished () then refuse_draining conn else handle_connection conn;
        loop ()
      | None ->
        if not (finished ()) then begin
          Thread.delay 0.002;
          loop ()
        end
    in
    loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      match address with
      | Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ())
      | Tcp _ -> ())
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock sockaddr;
      Unix.listen sock (max 64 (2 * t.max_pending));
      let workers = List.init t.max_workers (fun _ -> Thread.create worker ()) in
      (* Poll with a short timeout so shutdown requests arriving on a
         live connection stop the accept loop promptly. *)
      while not (finished ()) do
        match Unix.select [ sock ] [] [] 0.05 with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
          match Unix.accept sock with
          | conn, _ -> admit conn
          | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      (* Graceful drain: whatever is still queued is refused with a
         structured response; in-flight connections notice the stop
         flag at their next frame boundary; then the pool is joined. *)
      let rec drain () =
        match pop_pending () with
        | Some conn ->
          refuse_draining conn;
          drain ()
        | None -> ()
      in
      drain ();
      List.iter Thread.join workers)

(* --- client -------------------------------------------------------- *)

module Client = struct
  type conn = { ic : in_channel; oc : out_channel }

  let connect address =
    let domain, sockaddr = sockaddr_of_address address in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with exn ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise exn);
    { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

  let request c line =
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc;
    input_line c.ic

  let close c = close_in_noerr c.ic
end
