type table = {
  header : string array;
  rows : float array array;
}

let write ~path table =
  let width = Array.length table.header in
  Array.iter
    (fun row ->
      if Array.length row <> width then invalid_arg "Csv.write: row width mismatch")
    table.rows;
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      output_string channel (String.concat "," (Array.to_list table.header));
      output_char channel '\n';
      Array.iter
        (fun row ->
          let cells = Array.to_list (Array.map Caffeine_obs.Float_text.g17 row) in
          output_string channel (String.concat "," cells);
          output_char channel '\n')
        table.rows)

(* Files written on Windows (or passed through tools that normalize line
   endings) terminate lines with "\r\n"; [input_line] only strips the
   '\n', so every last cell would otherwise carry a trailing '\r' into
   number parsing and error messages. *)
let strip_cr line =
  let len = String.length line in
  if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1) else line

let check_duplicate_header header =
  let seen = Hashtbl.create (Array.length header) in
  let duplicate = ref None in
  Array.iteri
    (fun i name ->
      if !duplicate = None then
        match Hashtbl.find_opt seen name with
        | Some first ->
            (* Columns are bound by name downstream (--target, exclusion
               lists); a duplicate would silently resolve to the first
               occurrence and bind the wrong data. *)
            duplicate :=
              Some
                (Printf.sprintf "duplicate column name %S (columns %d and %d)" name (first + 1)
                   (i + 1))
        | None -> Hashtbl.add seen name i)
    header;
  !duplicate

let parse_row ~width lineno line =
  let cells = String.split_on_char ',' line in
  if List.length cells <> width then
    Error
      (Printf.sprintf "line %d: expected %d cells, found %d" lineno width (List.length cells))
  else begin
    let values = Array.make width 0. in
    let failed = ref None in
    List.iteri
      (fun i cell ->
        let cell = String.trim cell in
        match float_of_string_opt cell with
        | Some v -> values.(i) <- v
        | None ->
            if !failed = None then
              failed := Some (Printf.sprintf "line %d: bad number %S" lineno cell))
      cells;
    match !failed with Some msg -> Error msg | None -> Ok values
  end

(* Incremental driver shared by {!stream} and {!read}: one line in memory
   at a time, blank lines skipped but counted (error messages use real
   file positions), trailing '\r' stripped before any parsing. *)
let stream ~path ~header ~row =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | channel -> (
      (* A read can fail after the open succeeds (a directory, an I/O
         error): that is an [Error] too, never an exception. *)
      try
        Fun.protect
          ~finally:(fun () -> close_in channel)
          (fun () ->
            let lineno = ref 0 in
            let next_line () =
              (* Next non-blank line, or None at end of file. *)
              let rec go () =
                match input_line channel with
                | exception End_of_file -> None
                | line ->
                    incr lineno;
                    let line = strip_cr line in
                    if String.trim line = "" then go () else Some line
              in
              go ()
            in
            match next_line () with
            | None -> Error "empty file"
            | Some header_line -> (
                let names =
                  Array.of_list (List.map String.trim (String.split_on_char ',' header_line))
                in
                match check_duplicate_header names with
                | Some msg -> Error msg
                | None -> (
                    match header names with
                    | Error _ as e -> e
                    | Ok () ->
                        let width = Array.length names in
                        let rec drain saw_row =
                          match next_line () with
                          | None ->
                              if saw_row then Ok ()
                              else Error "no data rows: the file contains only a header"
                          | Some line -> (
                              match parse_row ~width !lineno line with
                              | Error _ as e -> e
                              | Ok values -> (
                                  match row ~lineno:!lineno values with
                                  | Error _ as e -> e
                                  | Ok () -> drain true))
                        in
                        drain false)))
      with Sys_error msg -> Error msg)

let read ~path =
  let header = ref [||] in
  let rows = ref [] in
  match
    stream ~path
      ~header:(fun names ->
        header := names;
        Ok ())
      ~row:(fun ~lineno:_ values ->
        rows := values :: !rows;
        Ok ())
  with
  | Error _ as e -> e
  | Ok () -> Ok { header = !header; rows = Array.of_list (List.rev !rows) }

let column_index table name =
  let rec search i =
    if i >= Array.length table.header then raise Not_found
    else if table.header.(i) = name then begin
      (* Tables read through {!read} can no longer carry duplicates, but the
         type is public: refuse to guess between two same-named columns. *)
      let rec dup j =
        if j >= Array.length table.header then ()
        else if table.header.(j) = name then
          invalid_arg
            (Printf.sprintf "Csv.column_index: duplicate column name %S (columns %d and %d)"
               name i j)
        else dup (j + 1)
      in
      dup (i + 1);
      i
    end
    else search (i + 1)
  in
  search 0

let column table name =
  let index = column_index table name in
  Array.map (fun row -> row.(index)) table.rows

let columns_except table excluded =
  let keep = ref [] in
  Array.iteri
    (fun i name -> if not (List.mem name excluded) then keep := i :: !keep)
    table.header;
  let indices = Array.of_list (List.rev !keep) in
  let names = Array.map (fun i -> table.header.(i)) indices in
  let rows = Array.map (fun row -> Array.map (fun i -> row.(i)) indices) table.rows in
  (names, rows)
