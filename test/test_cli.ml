(* End-to-end exit-code contract of the qsc binary (README "Failure
   semantics"):

     0    success
     123  reported failure (diagnostics, MISMATCH, failed properties)
     124  command-line misuse (unknown subcommand/option, bad value)
     125  internal error (unexpected exception)

   These run the real executable in a real process — the only way to
   test what the shell actually observes.  dune runs this suite with
   the test directory as cwd, so the binary is at ../bin/qsc.exe and
   the malformed inputs at corpus/. *)

let check_int = Alcotest.(check int)

let qsc = Filename.concat ".." (Filename.concat "bin" "qsc.exe")

let run args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote qsc) args)

(* A well-formed circuit written fresh so the suite stays self-contained
   (everything under corpus/ is malformed on purpose). *)
let with_good_qasm f =
  let path = Filename.temp_file "qsc-cli" ".qasm" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx \
         q[0],q[1];\n");
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_other_qasm f =
  let path = Filename.temp_file "qsc-cli" ".qasm" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "OPENQASM 2.0;\nqreg q[2];\nx q[0];\n");
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_exit_0_success () =
  check_int "devices" 0 (run "devices");
  with_good_qasm (fun good ->
      check_int "compile" 0
        (run (Printf.sprintf "compile -d ibmqx4 %s" (Filename.quote good)));
      check_int "check (self)" 0
        (run
           (Printf.sprintf "check %s %s" (Filename.quote good)
              (Filename.quote good)));
      check_int "lint --json" 0
        (run (Printf.sprintf "lint %s --json" (Filename.quote good)));
      check_int "analyze" 0
        (run (Printf.sprintf "analyze %s" (Filename.quote good)));
      check_int "analyze --json" 0
        (run (Printf.sprintf "analyze %s --json" (Filename.quote good)));
      check_int "compile --fold-states" 0
        (run
           (Printf.sprintf "compile -d ibmqx4 --fold-states %s"
              (Filename.quote good))));
  check_int "fuzz --list" 0 (run "fuzz --list");
  check_int "fuzz (clean tree)" 0
    (run "fuzz --property qc-roundtrip --count 5 --seed 42 --corpus-dir ''");
  check_int "--help" 0 (run "--help");
  check_int "--version" 0 (run "--version")

let test_exit_123_reported_failure () =
  (* Malformed input: a structured diagnostic, never a backtrace. *)
  check_int "compile malformed" 123
    (run "compile -d ibmqx4 corpus/truncated.qasm");
  check_int "compile nan angle" 123
    (run "compile -d ibmqx4 corpus/nan-angle.qasm");
  (* Formal non-equivalence. *)
  with_good_qasm (fun a ->
      with_other_qasm (fun b ->
          check_int "check non-equivalent" 123
            (run
               (Printf.sprintf "check %s %s" (Filename.quote a)
                  (Filename.quote b)))));
  (* Gates lost at expand-swaps: the report's unoptimized circuit no
     longer reassembles from its routed blocks, with or without
     placement. *)
  List.iter
    (fun place ->
      check_int
        ("compile truncate@expand-swaps" ^ place)
        123
        (run
           ("compile -i ../benchmarks/qc/st_0001.qc -d ibmqx5 --inject \
             truncate@expand-swaps --inject-seed 1" ^ place)))
    [ ""; " --place" ];
  (* A missing-inputs complaint is a reported failure (the parse layer
     accepted the command line; the subcommand rejected its meaning). *)
  check_int "compile without inputs" 123 (run "compile -d ibmqx4");
  (* An unknown property name likewise. *)
  check_int "fuzz unknown property" 123 (run "fuzz --property no-such-thing")

let test_serve_setting_out_of_range () =
  (* [Serve.create] is the one validator of the daemon's settings; qsc
     reports its refusal as a failure naming the setting, before
     anything listens.  [timeout] bounds the run should it listen. *)
  let socket = Filename.concat (Filename.get_temp_dir_name ()) "qsc-cli.sock" in
  let err = Filename.temp_file "qsc-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "timeout 20 %s serve --socket %s --max-workers 0 2>%s"
             (Filename.quote qsc) (Filename.quote socket) (Filename.quote err))
      in
      check_int "serve --max-workers 0" 123 code;
      let message = In_channel.with_open_text err In_channel.input_all in
      Alcotest.(check bool)
        (Printf.sprintf "message names the setting: %S" message)
        true
        (String.starts_with ~prefix:"qsc: max workers " message))

let test_serve_jobs_default () =
  (* [Serve.create] owns the default number of compile domains, and
     [qsc serve] without --jobs takes it: QSC_JOBS when set. *)
  let socket = Filename.temp_file "qsc-cli-jobs" ".sock" in
  Sys.remove socket;
  let env =
    Array.append [| "QSC_JOBS=3" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"QSC_JOBS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env qsc
      [| qsc; "serve"; "--socket"; socket; "--max-requests"; "1" |]
      env Unix.stdin null null
  in
  Unix.close null;
  let rec connect retries =
    match Serve.Client.connect (Serve.Unix_socket socket) with
    | conn -> conn
    | exception _ when retries > 0 ->
      Unix.sleepf 0.02;
      connect (retries - 1)
  in
  let response =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let conn = connect 500 in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close conn)
          (fun () -> Serve.Client.request conn {|{"op":"stats"}|}))
  in
  let jobs =
    let open Trace.Json in
    match of_string response with
    | Ok j -> (
      match Option.bind (member "stats" j) (member "overload") with
      | Some o -> member "jobs" o
      | None -> None)
    | Error _ -> None
  in
  Alcotest.(check bool)
    (Printf.sprintf "QSC_JOBS=3 gives 3 jobs: %s" response)
    true
    (jobs = Some (Trace.Json.Int 3))

let test_exit_124_misuse () =
  check_int "unknown option" 124 (run "compile --no-such-flag");
  check_int "unknown subcommand" 124 (run "frobnicate");
  with_good_qasm (fun good ->
      check_int "bad device value" 124
        (run (Printf.sprintf "compile -d no-such-device %s" (Filename.quote good))));
  check_int "bad int value" 124 (run "fuzz --count notanint");
  with_good_qasm (fun good ->
      List.iter
        (fun weights ->
          check_int ("--cost-weights " ^ weights) 124
            (run
               (Printf.sprintf "compile -d ibmqx4 --cost-weights %s %s" weights
                  (Filename.quote good))))
        [ "nan,0,0"; "inf,0,0" ])

let test_exit_125_internal_error () =
  (* The debug hook raises before dispatch, standing in for any bug
     that escapes the classified-exception boundary. *)
  let code =
    Sys.command
      (Printf.sprintf "QSC_DEBUG_INJECT_CRASH=boom %s devices >/dev/null 2>&1"
         (Filename.quote qsc))
  in
  check_int "injected crash" 125 code

let test_fuzz_repro_corpus_replays () =
  (* Every stored repro is a past fuzz failure; on a fixed tree the
     binary must replay it clean.  Exercises --seed/--count 1 replay
     through the real CLI, not just the library. *)
  Sys.readdir "corpus/fuzz" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.iter (fun f ->
         let text =
           In_channel.with_open_text (Filename.concat "corpus/fuzz" f)
             In_channel.input_all
         in
         match Fuzz.repro_of_string text with
         | Error e -> Alcotest.failf "%s: unreadable repro: %s" f e
         | Ok (property, seed, _case) ->
           check_int
             (Printf.sprintf "%s replays clean" f)
             0
             (run
                (Printf.sprintf
                   "fuzz --property %s --seed %d --count 1 --corpus-dir ''"
                   (Filename.quote property) seed)))

(* Two rotations whose angles sum past the largest float.  Merged, they
   became an [rx(inf)] that the compile read as a false MISMATCH, and an
   [rz(inf)] that [qsc optimize] printed with exit 0.  Both files
   compile and verify, and optimize under the oracle, with no infinite
   angle in any output. *)
let test_overflowing_merges () =
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun body ->
      let path = Filename.temp_file "qsc-cli" ".qasm" in
      let out = Filename.temp_file "qsc-cli" ".out" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove path;
          Sys.remove out)
        (fun () ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc
                ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n" ^ body));
          let qsc_output args =
            let code =
              Sys.command
                (Printf.sprintf "%s %s %s >%s 2>&1" (Filename.quote qsc) args
                   (Filename.quote path) (Filename.quote out))
            in
            (code, In_channel.with_open_text out In_channel.input_all)
          in
          List.iter
            (fun (args, expect) ->
              let code, output = qsc_output args in
              let what = Printf.sprintf "%s on %S" args body in
              check_int what 0 code;
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s, no infinite angle:\n%s" what expect
                   output)
                true
                (contains output expect
                && not (contains output "inf)" || contains output "nan)")))
            [
              ("compile -d ibmqx4", "verification verified");
              ("optimize --check", "sweeps reverted by the oracle: 0");
            ]))
    [
      "rx(1e308) q[0];\nrx(1e308) q[0];\ncx q[0],q[1];\n";
      "rz(1e308) q[0];\ncx q[0],q[1];\nrz(1e308) q[0];\n";
    ]

(* Start-up cost: every qsc process, [--version] included, runs every
   linked module's initialisers, the Clifford group table of the
   rewrite tier among them.  The runtime's exit report (OCAMLRUNPARAM
   v=0x400) gives the words the whole process allocated. *)
let test_startup_allocation () =
  let err = Filename.temp_file "qsc-cli" ".gc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      check_int "--version" 0
        (Sys.command
           (Printf.sprintf "OCAMLRUNPARAM=v=0x400 %s --version >/dev/null 2>%s"
              (Filename.quote qsc) (Filename.quote err)));
      let report = In_channel.with_open_text err In_channel.input_all in
      let words =
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "allocated_words"; n ] -> int_of_string_opt (String.trim n)
            | _ -> None)
          (String.split_on_char '\n' report)
      in
      match words with
      | None -> Alcotest.failf "no allocated_words in the exit report:\n%s" report
      | Some n ->
        Alcotest.(check bool)
          (Printf.sprintf "qsc --version allocated %d words" n)
          true (n < 300_000))

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        [
          Alcotest.test_case "0: success" `Quick test_exit_0_success;
          Alcotest.test_case "123: reported failure" `Quick
            test_exit_123_reported_failure;
          Alcotest.test_case "123: serve setting out of range" `Quick
            test_serve_setting_out_of_range;
          Alcotest.test_case "124: misuse" `Quick test_exit_124_misuse;
          Alcotest.test_case "125: internal error" `Quick
            test_exit_125_internal_error;
          Alcotest.test_case "fuzz repro corpus replays clean" `Quick
            test_fuzz_repro_corpus_replays;
          Alcotest.test_case "0: overflowing rotation merges" `Quick
            test_overflowing_merges;
        ] );
      ( "serve",
        [
          Alcotest.test_case "jobs default from QSC_JOBS" `Quick
            test_serve_jobs_default;
        ] );
      ( "start-up",
        [
          Alcotest.test_case "qsc --version allocates under 300,000 words"
            `Quick test_startup_allocation;
        ] );
    ]
