type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* Numbers are kept as raw lexemes so integer fields never go through a
   float; each decoding helper converts per field. *)
let parse_exn text =
  let pos = ref 0 in
  let len = String.length text in
  let fail message = raise (Parse_error message) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = Stdlib.incr pos in
  let skip_ws () =
    while !pos < len && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < len && text.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c at offset %d" c !pos)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub text !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "bad literal at offset %d" !pos)
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then fail "unterminated string"
      else
        match text.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "unterminated escape"
             else
               match text.[!pos] with
               | '"' ->
                   Buffer.add_char buffer '"';
                   advance ()
               | '\\' ->
                   Buffer.add_char buffer '\\';
                   advance ()
               | '/' ->
                   Buffer.add_char buffer '/';
                   advance ()
               | 'b' ->
                   Buffer.add_char buffer '\b';
                   advance ()
               | 'f' ->
                   Buffer.add_char buffer '\012';
                   advance ()
               | 'n' ->
                   Buffer.add_char buffer '\n';
                   advance ()
               | 'r' ->
                   Buffer.add_char buffer '\r';
                   advance ()
               | 't' ->
                   Buffer.add_char buffer '\t';
                   advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > len then fail "truncated \\u escape";
                   let code =
                     try int_of_string ("0x" ^ String.sub text !pos 4)
                     with _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* Encode the BMP code point as UTF-8. *)
                   if code < 0x80 then Buffer.add_char buffer (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            loop ()
        | c ->
            Buffer.add_char buffer c;
            advance ();
            loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      && match text.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail (Printf.sprintf "expected a value at offset %d" start);
    Num (String.sub text start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let name = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((name, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((name, value) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (value :: acc)
            | Some ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> len then fail (Printf.sprintf "trailing input at offset %d" !pos);
  value

let parse text =
  match parse_exn text with
  | value -> Ok value
  | exception Parse_error message -> Error message

(* --- decoding helpers ---------------------------------------------------- *)

let obj = function Obj fields -> fields | _ -> raise (Parse_error "expected an object")

let member fields name =
  match List.assoc_opt name fields with
  | Some value -> value
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" name))

let to_int name = function
  | Num raw -> (
      match int_of_string_opt raw with
      | Some v -> v
      | None -> raise (Parse_error (Printf.sprintf "field %S is not an integer" name)))
  | _ -> raise (Parse_error (Printf.sprintf "field %S is not an integer" name))

let to_float name = function
  | Num raw -> (
      match float_of_string_opt raw with
      | Some v -> v
      | None -> raise (Parse_error (Printf.sprintf "field %S is not a number" name)))
  | Str "NaN" -> Float.nan
  | Str "Infinity" -> Float.infinity
  | Str "-Infinity" -> Float.neg_infinity
  | _ -> raise (Parse_error (Printf.sprintf "field %S is not a number" name))

let to_str name = function
  | Str s -> s
  | _ -> raise (Parse_error (Printf.sprintf "field %S is not a string" name))

let to_arr name = function
  | Arr elements -> elements
  | _ -> raise (Parse_error (Printf.sprintf "field %S is not an array" name))

let int_of fields name = to_int name (member fields name)
let float_of fields name = to_float name (member fields name)
let str_of fields name = to_str name (member fields name)
let arr_of fields name = to_arr name (member fields name)

let int_array_of fields name =
  Array.of_list (List.map (to_int name) (to_arr name (member fields name)))

(* --- encoding helpers ---------------------------------------------------- *)

(* The three non-finite values are not valid JSON numbers and travel as
   strings. *)
let add_float buffer v =
  if Float.is_finite v then Float_text.add_g17 buffer v
  else if Float.is_nan v then Buffer.add_string buffer "\"NaN\""
  else if v > 0. then Buffer.add_string buffer "\"Infinity\""
  else Buffer.add_string buffer "\"-Infinity\""

let add_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | '\b' -> Buffer.add_string buffer "\\b"
      | '\012' -> Buffer.add_string buffer "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'
