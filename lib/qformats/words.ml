(* The line lexer of the .pla, .qc and .real readers: the words of a
   line up to its first '#', split on spaces and tabs. *)
let of_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")
