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

type counters = {
  mutable requests : int;
  mutable lookups : int;  (** resolved cache consultations: hits + misses *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  resident : int;  (** filled in by [stats] only *)
  mutable resident_bytes : int;
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
  inject : (unit -> unit) option;
  (* [state_lock] guards the cache, [in_flight], [running] and the
     counters, in short sections and in waits on [changed].  No lock is
     held while a compile runs. *)
  state_lock : Mutex.t;
  changed : Condition.t;
      (** broadcast when a compile lands, and on every tick of [serve]'s
          accept loop; every wait for a compile waits on it *)
  in_flight : (string, unit) Hashtbl.t;
      (** keys a one-shot miss is compiling; see [compile_with_cache] *)
  mutable running : int;  (** compiles queued or running, at most [jobs] *)
  mutable clock : int;  (** LRU tick; bumped on every cache touch *)
  c : counters;
  stop : bool Atomic.t;
}

exception Allocation_budget_exceeded of int

let with_state t f = Mutex.protect t.state_lock f

(* One lock acquisition for the whole snapshot: every field is read in
   the same critical section the workers write them in, so a snapshot
   can never be torn — [hits + misses = lookups] holds in every
   observation, even under full compile load. *)
let stats t =
  with_state t (fun () -> { t.c with resident = Hashtbl.length t.cache })

let shutdown_requested t = Atomic.get t.stop

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
      t.c.persist_errors <- t.c.persist_errors + 1;
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
    t.c.resident_bytes <- t.c.resident_bytes - entry.bytes;
    t.c.evictions <- t.c.evictions + 1;
    persist_remove t key
  | None -> ()

let over_budget t =
  (t.capacity > 0 && Hashtbl.length t.cache > t.capacity)
  || (t.max_bytes > 0 && t.c.resident_bytes > t.max_bytes)

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
      t.c.resident_bytes <- t.c.resident_bytes - old.bytes;
      Hashtbl.remove t.cache key
    | None -> ());
    let bytes = String.length (J.to_string (J.Obj payload)) in
    let entry = { payload; code; bytes; tick = 0 } in
    touch t entry;
    Hashtbl.replace t.cache key entry;
    t.c.resident_bytes <- t.c.resident_bytes + bytes;
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
       t.c.persist_errors <- t.c.persist_errors + 1);
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
          t.c.persist_errors <- t.c.persist_errors + 1;
          try Sys.remove path with Sys_error _ -> ()
        in
        match In_channel.with_open_bin path In_channel.input_all with
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
              if Hashtbl.mem t.cache key then t.c.warmed <- t.c.warmed + 1
            | _ -> drop ())))
      reports

module Default = struct
  let cache_capacity = 256
  let max_cache_bytes = 64 * 1024 * 1024
  let max_deadline_seconds = 60.0
  let max_frame_bytes = 4 * 1024 * 1024
  let watchdog_grace_seconds = 5.0
  let read_timeout_seconds = 30.0
  let max_workers = 8
  let max_pending = 32

  (* The heap one compile may reach before the default 8M-node
     verification budget stops it: T10_b compiled to big96 had 2.9 GB
     when the budget stopped its proof. *)
  let compile_peak_kb = 3 * 1024 * 1024

  let physical_memory_kb () =
    try
      In_channel.with_open_text "/proc/meminfo" (fun ic ->
          Option.bind (In_channel.input_line ic) (fun line ->
              Scanf.sscanf_opt line "MemTotal: %d kB" Fun.id))
    with Sys_error _ -> None

  let jobs () =
    if Option.is_some (Sys.getenv_opt "QSC_JOBS") then Parallel.default_jobs ()
    else
      match physical_memory_kb () with
      | Some kb ->
        max 1 (min (Domain.recommended_domain_count ()) (kb / compile_peak_kb))
      | None -> 1
end

let create ?(cache_capacity = Default.cache_capacity)
    ?(max_cache_bytes = Default.max_cache_bytes) ?persist_dir
    ?(max_deadline_seconds = Default.max_deadline_seconds)
    ?(max_frame_bytes = Default.max_frame_bytes)
    ?(watchdog_grace_seconds = Default.watchdog_grace_seconds)
    ?max_request_bytes ?(read_timeout_seconds = Default.read_timeout_seconds)
    ?(max_workers = Default.max_workers) ?(max_pending = Default.max_pending)
    ?(jobs = Default.jobs ()) ?inject () =
  (* Each message names the setting in the words of its [qsc serve]
     flag. *)
  let require ok msg = if not ok then invalid_arg msg in
  require (cache_capacity >= 0) "cache size must be >= 0";
  require (max_cache_bytes >= 0) "cache bytes must be >= 0";
  require (max_deadline_seconds > 0.0) "max deadline must be positive";
  require (max_frame_bytes > 0) "max frame bytes must be positive";
  require (watchdog_grace_seconds >= 0.0) "watchdog grace must be >= 0";
  require
    (match max_request_bytes with Some n -> n > 0 | None -> true)
    "max request size must be positive";
  require (read_timeout_seconds > 0.0) "read timeout must be positive";
  require (max_workers >= 1) "max workers must be >= 1";
  require (max_pending >= 1) "max pending must be >= 1";
  require (jobs >= 1) "jobs must be >= 1";
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
      inject;
      state_lock = Mutex.create ();
      changed = Condition.create ();
      in_flight = Hashtbl.create 16;
      running = 0;
      clock = 0;
      c =
        {
          requests = 0;
          lookups = 0;
          hits = 0;
          misses = 0;
          evictions = 0;
          resident = 0;
          resident_bytes = 0;
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
        };
      stop = Atomic.make false;
    }
  in
  warm_from_disk t;
  t

(* --- protocol errors ----------------------------------------------- *)

(* Carries the response code alongside the diagnostic; code 124 is
   protocol misuse (the CLI's command-line-misuse lane), 123 a reported
   failure. *)
exception Reject of int * Diagnostic.t

let reject code msg =
  raise
    (Reject
       ( code,
         Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Protocol
           msg ))

let misuse msg = reject 124 msg
let missing_field msg = reject 123 msg

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

(* The default compile, changed only where the request's options say
   so: the same start as [qsc compile], so a served report matches a
   one-shot compile byte for byte.  A daemon never hangs forever on one
   compile: a requested deadline is clamped to [max_deadline], and a
   request that asks for none gets it. *)
let apply_options ~max_deadline device opts_json =
  let mode = ref None and node_budget = ref None in
  let max_sim_qubits = ref None in
  let options = ref (Compiler.default_options ~device) in
  let set f = options := f !options in
  let set_budgets f =
    set (fun o -> { o with Compiler.budgets = f o.Compiler.budgets })
  in
  set_budgets (fun b ->
      { b with Compiler.deadline_seconds = Some max_deadline });
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
      | "verification" ->
        mode :=
          Some
            (match value with
            | J.String "skip" -> `Skip
            | J.String "qmdd" -> `Qmdd
            | J.String "fallback" -> `Fallback
            | _ -> misuse "option \"verification\" must be skip|qmdd|fallback")
      | "node_budget" -> node_budget := Some (as_int key value)
      | "max_sim_qubits" -> max_sim_qubits := Some (as_int key value)
      | "deadline_seconds" ->
        let d = as_number key value in
        if d <= 0.0 then misuse "option \"deadline_seconds\" must be positive";
        set_budgets (fun b ->
            {
              b with
              Compiler.deadline_seconds = Some (Float.min d max_deadline);
            })
      | "max_optimize_iterations" ->
        let n = as_int key value in
        set_budgets (fun b ->
            { b with Compiler.max_optimize_iterations = Some n })
      | "swap_budget" ->
        let n = as_int key value in
        set_budgets (fun b -> { b with Compiler.swap_budget = Some n })
      | other -> misuse (Printf.sprintf "unknown option %S" other))
    opts_json;
  let verification =
    Compiler.verification_mode ?mode:!mode ?node_budget:!node_budget
      ?max_sim_qubits:!max_sim_qubits ()
  in
  { !options with Compiler.verification }

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
  let options = apply_options ~max_deadline:t.max_deadline device opts_json in
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
   daemon's sys-threads only move bytes and wait.  The pool is
   process-wide because OCaml caps a process at 128 domains and tests
   and the fuzzer build thousands of daemons in one process.  It
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

  (* Jobs never raise: [submit] below wraps each one. *)
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

(* --- waits --------------------------------------------------------- *)

(* The instant [seconds] from now on the monotonic clock, so that no
   step of the wall clock moves a wait's end. *)
let deadline_in seconds =
  Int64.add (Trace.now_ns ()) (Int64.of_float (seconds *. 1e9))

(* Raised by a wait that outlasted its watchdog limit (in seconds). *)
exception Watchdog of float

(* Wait on [changed], with [state_lock] held, until [ready ()] holds.
   Under a [limit] (seconds; [None] is no watchdog) the wait raises
   [Watchdog] once it has lasted that long.  OCaml 5.1's [Condition]
   has no timed wait, so [serve]'s accept loop broadcasts [changed] on
   every tick, and a wait on a wedged compile still wakes to see its
   deadline. *)
let wait_until t ~limit ready =
  let deadline = Option.map deadline_in limit in
  while not (ready ()) do
    (match limit with
    | Some s when Trace.past deadline -> raise (Watchdog s)
    | _ -> ());
    Condition.wait t.changed t.state_lock
  done

(* A compile submitted to the pool; [outcome] is set under [state_lock]
   when it lands. *)
type 'a pending = {
  mutable outcome : ('a, exn * Printexc.raw_backtrace) result option;
}

(* Run [f] on the pool, on a slot the caller has taken (counted in
   [running] under [state_lock]).  When [f] ends, one critical section
   hands its outcome to [landed], records it, frees the slot and wakes
   every waiter, whether or not anyone still waits for it. *)
let submit ?(landed = ignore) t f =
  let p = { outcome = None } in
  let settle outcome =
    with_state t (fun () ->
        landed outcome;
        p.outcome <- Some outcome;
        t.running <- t.running - 1;
        Condition.broadcast t.changed)
  in
  let job () =
    settle
      (match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  (try Pool.submit ~domains:t.jobs job
   with e -> settle (Error (e, Printexc.get_raw_backtrace ())));
  p

(* Queue [f] behind one of [t]'s [jobs] slots.  The slot then belongs
   to the compile, which frees it when it lands, so a thread never
   holds a slot while it waits for another. *)
let start t ~limit f =
  with_state t (fun () ->
      wait_until t ~limit (fun () -> t.running < t.jobs);
      t.running <- t.running + 1);
  submit t f

(* The compile's result, or its exception re-raised in this thread. *)
let await t ~limit p =
  match
    with_state t (fun () ->
        wait_until t ~limit (fun () -> Option.is_some p.outcome);
        p.outcome)
  with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None -> assert false

(* --- compile ------------------------------------------------------- *)

(* The body of every failed response or batch entry. *)
let error_body ds =
  [
    ("status", J.String "error");
    ("diagnostics", J.List (List.map Diagnostic.to_json ds));
  ]

(* A resolved cache consultation: a hit bumps [hits] and [lookups] in
   one critical section; a miss bumps [misses] and [lookups] in one, so
   [hits + misses = lookups] holds at every instant.  Called with
   [state_lock] held. *)
let count_hit (t : t) entry =
  t.c.lookups <- t.c.lookups + 1;
  t.c.hits <- t.c.hits + 1;
  touch t entry;
  (entry.code, entry.payload @ [ ("cached", J.Bool true) ])

let count_miss (t : t) =
  t.c.lookups <- t.c.lookups + 1;
  t.c.misses <- t.c.misses + 1

let cache_lookup t key =
  with_state t (fun () ->
      Option.map (count_hit t) (Hashtbl.find_opt t.cache key))

let record_miss t = with_state t (fun () -> count_miss t)

let outcome_response = function
  | Error ds ->
    (* Failures are cheap to recompute and usually get fixed and
       resubmitted; only completed reports are worth cache slots. *)
    `Fail (123, error_body ds)
  | Ok report ->
    let mismatch = report.Compiler.verification = Compiler.Mismatch in
    let code = if mismatch then 123 else 0 in
    let payload =
      [
        ("status", J.String (if mismatch then "mismatch" else "ok"));
        ("report", scrub_report (Compiler.report_to_json report));
      ]
    in
    `Report (code, payload)

(* The pure compile core and its rendering: no cache access, no locks.
   Runs on a pool domain (see [submit]). *)
let compile_uncached t req =
  outcome_response
    (guarded_allocation t (fun () ->
         (match t.inject with Some f -> f () | None -> ());
         match Compiler.parse_source_checked ~format:req.format req.source with
         | Error d -> Error [ d ]
         | Ok input -> Compiler.compile_checked req.options input))

let miss_response = function
  | `Fail response -> response
  | `Report (code, payload) -> (code, payload @ [ ("cached", J.Bool false) ])

(* Racing misses coalesce: a miss registers its key in [in_flight] and
   takes a compile slot in the critical section that found the cache
   without the key, then compiles with no lock held.  A request for a
   registered key waits until the key leaves, then looks again: it
   takes the cached report as a hit, or, when the outcome was not
   cached (a diagnostic, an exception), becomes the next miss.  The key
   leaves when the compile lands, in the section that caches its
   report, even when the watchdog has given up on the request: the
   late report still goes to the cache, and a request for the same key
   waits for it meanwhile. *)
let compile_with_cache t ~limit req key =
  let claimed =
    with_state t (fun () ->
        wait_until t ~limit (fun () ->
            Hashtbl.mem t.cache key
            || not (Hashtbl.mem t.in_flight key || t.running >= t.jobs));
        match Hashtbl.find_opt t.cache key with
        | Some entry -> Some (count_hit t entry)
        | None ->
          Hashtbl.replace t.in_flight key ();
          count_miss t;
          t.running <- t.running + 1;
          None)
  in
  match claimed with
  | Some hit -> hit
  | None ->
    let landed outcome =
      (match outcome with
      | Ok (`Report (code, payload)) -> cache_insert t key payload code
      | Ok (`Fail _) | Error _ -> ());
      Hashtbl.remove t.in_flight key
    in
    miss_response
      (await t ~limit (submit ~landed t (fun () -> compile_uncached t req)))

(* Returns the response code and body fields for one compile request. *)
let run_compile t ~limit j =
  let req = parse_compile_request t j in
  compile_with_cache t ~limit req (cache_key req)

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
  error_body
    [ Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Internal msg ]

let alloc_trip t budget =
  with_state t (fun () -> t.c.alloc_trips <- t.c.alloc_trips + 1);
  ( 125,
    internal_error_body
      (Printf.sprintf
         "request exceeded the per-request allocation budget (%d bytes); \
          compile abandoned"
         budget) )

(* One entry of a batch: same shape as a compile response, minus the
   envelope (protocol/seconds live on the enclosing frame). *)
let entry_of_response (code, body) =
  J.Obj ([ ("ok", J.Bool (code = 0)); ("code", J.Int code) ] @ body)

let alloc_entry t budget = entry_of_response (alloc_trip t budget)

(* A batch.  Only the pure compiles fan out: the cache protocol is
   replayed strictly sequentially in request order (phase 3), so
   response bytes, counters and LRU order are those of a sequential run
   of the same batch on an idle server, at every [jobs].

   Phase 1 parses every lane and predicts which distinct keys a
   sequential run would have to compile (first occurrence of a key not
   already cached).  Phase 2 submits exactly those to the compile
   pool, up to [jobs] at once, and waits for them.  Phase 3 walks the
   lanes in order running the normal lookup/miss protocol,
   substituting a precomputed outcome where one exists; a predicted
   hit whose entry was evicted in the meantime simply falls back to
   the one-shot path, so correctness never depends on the
   prediction. *)
let batch_results t ~limit requests =
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
        start t ~limit (fun () ->
            match compile_uncached t req with
            | outcome -> `Outcome outcome
            | exception Allocation_budget_exceeded budget -> `Alloc budget) ))
    missing
  |> List.iter (fun (key, p) ->
         Hashtbl.replace precomputed key (await t ~limit p));
  List.map
    (function
      | `Rejected (code, d) -> entry_of_response (code, error_body [ d ])
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
            (match outcome with
            | `Report (code, payload) ->
              with_state t (fun () -> cache_insert t key payload code)
            | `Fail _ -> ());
            entry_of_response (miss_response outcome)
          | None -> (
            (* Predicted hit evicted mid-batch: compile it as the
               sequential run would. *)
            match compile_with_cache t ~limit req key with
            | response -> entry_of_response response
            | exception Allocation_budget_exceeded budget ->
              alloc_entry t budget))))
    lanes

let run_batch t ~limit j =
  let requests =
    match J.member "requests" j with
    | Some (J.List l) -> l
    | Some _ -> misuse "field \"requests\" must be a list"
    | None -> missing_field "batch request is missing \"requests\""
  in
  let results = batch_results t ~limit requests in
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

let dispatch t ~limit j =
  match get_string "op" j with
  | Some "ping" -> (0, [ ("pong", J.Bool true) ])
  | Some "stats" -> (0, stats_body t)
  | Some "shutdown" ->
    Atomic.set t.stop true;
    (0, [ ("stopping", J.Bool true) ])
  | Some "compile" -> run_compile t ~limit j
  | Some "batch" -> run_batch t ~limit j
  | Some other -> misuse (Printf.sprintf "unknown op %S" other)
  | None -> missing_field "request is missing \"op\""

(* OCaml threads cannot be killed, so a request the watchdog gives up
   on is answered, not stopped: its compile keeps its domain and its
   slot until it lands, and the late report only reaches the cache. *)
let watchdog_trip t limit =
  with_state t (fun () -> t.c.watchdog_trips <- t.c.watchdog_trips + 1);
  ( 125,
    internal_error_body
      (Printf.sprintf
         "watchdog: a wait exceeded the %.3gs limit; request abandoned, its \
          late result discarded"
         limit) )

let handle_line_core t ~limit line =
  let t0 = Trace.now_ns () in
  with_state t (fun () -> t.c.requests <- t.c.requests + 1);
  let id, (code, body) =
    match J.of_string line with
    | Error msg -> (
      ( None,
        try misuse (Printf.sprintf "unparseable request: %s" msg)
        with Reject (code, d) -> (code, error_body [ d ]) ))
    | Ok j -> (
      let id = match j with J.Obj _ -> J.member "id" j | _ -> None in
      ( id,
        match
          dispatch t ~limit
            (match j with
            | J.Obj _ -> j
            | _ -> misuse "request must be a JSON object")
        with
        | result -> result
        | exception Reject (code, d) -> (code, error_body [ d ])
        | exception Allocation_budget_exceeded budget -> alloc_trip t budget
        | exception Watchdog limit -> watchdog_trip t limit
        | exception exn ->
          ( 125,
            internal_error_body
              (Printf.sprintf "unexpected exception: %s"
                 (Printexc.to_string exn)) ) ))
  in
  let seconds = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9 in
  envelope ?id ~code ~seconds body

let frame_reject_body t =
  error_body
    [
      Diagnostic.error ~stage:Diagnostic.Driver ~kind:Diagnostic.Protocol
        (Printf.sprintf "request line exceeds the %d-byte frame cap"
           t.max_frame_bytes);
    ]

(* The protocol core: one response line for one request line.  Each
   wait of the request is bounded by [limit] when one is given. *)
let respond t ~limit line =
  (* The frame cap comes first: an over-long line is answered without
     ever being parsed (or buffered further by the socket layer). *)
  if String.length line > t.max_frame_bytes then begin
    with_state t (fun () ->
        t.c.requests <- t.c.requests + 1;
        t.c.frame_rejects <- t.c.frame_rejects + 1);
    envelope ~code:124 ~seconds:0.0 (frame_reject_body t)
  end
  else
    try handle_line_core t ~limit line
    with exn ->
      (* [handle_line_core] already converts everything it can; this is
         the last-resort 125 lane (e.g. Out_of_memory). *)
      envelope ~code:125 ~seconds:0.0
        (internal_error_body
           (Printf.sprintf "unexpected exception: %s" (Printexc.to_string exn)))

let handle_line t line = respond t ~limit:None line

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
    with_state t (fun () -> t.c.client_disconnects <- t.c.client_disconnects + 1);
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
  let served = Atomic.make 0 in
  let finished () =
    shutdown_requested t
    || match max_requests with Some n -> Atomic.get served >= n | None -> false
  in
  (* The watchdog bounds each wait of a request served here. *)
  let limit =
    if t.watchdog_grace > 0.0 then Some (t.max_deadline +. t.watchdog_grace)
    else None
  in
  (* Admission control: accepted connections pass through a bounded
     queue into a fixed worker pool.  The accept loop sheds beyond the
     queue bound; the pool never grows. *)
  let pending : Unix.file_descr Queue.t = Queue.create () in
  let pending_lock = Mutex.create () in
  let queued = Condition.create () in
  (* The next queued connection, once there is one; [None] once the
     daemon is finished and nothing is queued. *)
  let next_conn () =
    Mutex.protect pending_lock (fun () ->
        while Queue.is_empty pending && not (finished ()) do
          Condition.wait queued pending_lock
        done;
        Queue.take_opt pending)
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
    with_state t (fun () -> t.c.drained <- t.c.drained + 1)
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
    with_state t (fun () -> t.c.shed <- t.c.shed + 1)
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
      Condition.signal queued;
      Mutex.unlock pending_lock
    end
  in
  (* One byte written to [wake_w] ends the accept loop's wait at once:
     the connection worker whose response made the daemon finished
     writes it, and so does the last worker to leave. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let wake () =
    try ignore (Unix.write_substring wake_w "." 0 1) with Unix.Unix_error _ -> ()
  in
  let handle_connection conn =
    with_state t (fun () ->
        t.c.open_connections <- t.c.open_connections + 1;
        t.c.connections_served <- t.c.connections_served + 1);
    Fun.protect
      ~finally:(fun () ->
        close_quiet conn;
        with_state t (fun () ->
            t.c.open_connections <- t.c.open_connections - 1))
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
          let deadline_at = deadline_in t.read_timeout in
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
                let left =
                  Int64.to_float (Int64.sub deadline_at (Trace.now_ns ()))
                  /. 1e9
                in
                if left <= 0.0 then `Timeout
                else begin
                  let tick = Float.min 0.2 left in
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
              let response = respond t ~limit line in
              if write_all t conn (response ^ "\n") then begin
                Atomic.incr served;
                if finished () then wake () else loop ()
              end
            | `Too_long ->
              with_state t (fun () -> t.c.frame_rejects <- t.c.frame_rejects + 1);
              ignore
                (write_all t conn
                   (envelope ~code:124 ~seconds:0.0 (frame_reject_body t)
                   ^ "\n"))
            | `Timeout ->
              with_state t (fun () -> t.c.read_timeouts <- t.c.read_timeouts + 1)
            | `Eof | `Draining -> ()
        in
        loop ())
  in
  let live = Atomic.make t.max_workers in
  let worker () =
    let rec loop () =
      match next_conn () with
      | Some conn ->
        (* A connection still queued at drain time is refused, never
           served: only in-flight requests ride out the shutdown. *)
        if finished () then refuse_draining conn else handle_connection conn;
        loop ()
      | None -> ()
    in
    Fun.protect
      ~finally:(fun () -> if Atomic.fetch_and_add live (-1) = 1 then wake ())
      loop
  in
  (* Graceful drain: whatever is still queued is refused with a
     structured response, and idle workers wake and leave; in-flight
     connections notice the stop at their next frame boundary. *)
  let rec drain () =
    match
      Mutex.protect pending_lock (fun () ->
          Condition.broadcast queued;
          Queue.take_opt pending)
    with
    | Some conn ->
      refuse_draining conn;
      drain ()
    | None -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ sock; wake_r; wake_w ];
      match address with
      | Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ())
      | Tcp _ -> ())
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock sockaddr;
      Unix.listen sock (max 64 (2 * t.max_pending));
      let workers = List.init t.max_workers (fun _ -> Thread.create worker ()) in
      (* The accept loop waits on the socket and the wake pipe, so the
         response that makes the daemon finished starts the drain at
         once, and the last worker's leaving ends it.  It also wakes at
         least every 50 ms and broadcasts [changed]: that is the
         watchdog's clock, so a wait past its limit ends even when no
         compile lands.  A wake byte is read out, so the drain does not
         spin on it. *)
      let wake_bytes = Bytes.create 64 in
      while Atomic.get live > 0 do
        let draining = finished () in
        if draining then drain ();
        (match
           Unix.select (if draining then [ wake_r ] else [ sock; wake_r ]) [] []
             0.05
         with
        | ready, _, _ ->
          if List.mem wake_r ready then (
            try ignore (Unix.read wake_r wake_bytes 0 (Bytes.length wake_bytes))
            with Unix.Unix_error _ -> ());
          if (not draining) && List.mem sock ready then (
            match Unix.accept sock with
            | conn, _ -> admit conn
            | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        Condition.broadcast t.changed
      done;
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
