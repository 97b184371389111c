type t = {
  circuit : Circuit.t;
  node_names : (string * int) list;
  title : string option;
}

let lowercase = String.lowercase_ascii

(* --- engineering notation ------------------------------------------------ *)

(* Longest first: "meg" and "mil" before "m". *)
let scale_factors =
  [
    ("meg", 1e6); ("mil", 25.4e-6); ("f", 1e-15); ("p", 1e-12); ("n", 1e-9); ("u", 1e-6);
    ("m", 1e-3); ("k", 1e3); ("g", 1e9); ("t", 1e12);
  ]

let is_digit c = c >= '0' && c <= '9'
let is_letter c = c >= 'a' && c <= 'z'

(* [numeral][scale][letters], SPICE-style: the scale factor multiplies, the
   unit letters after it are ignored ("1uF", "2.2kOhm").  Unit letters
   starting with 'x' are refused so a hex literal ("0xff") is an error, not
   a silent 0. *)
let parse_value text =
  let text = lowercase (String.trim text) in
  let len = String.length text in
  let rec skip pred i = if i < len && pred text.[i] then skip pred (i + 1) else i in
  let sign_end = if len > 0 && (text.[0] = '+' || text.[0] = '-') then 1 else 0 in
  let int_end = skip is_digit sign_end in
  let frac_end =
    if int_end < len && text.[int_end] = '.' then skip is_digit (int_end + 1) else int_end
  in
  let mantissa_digits = int_end - sign_end + max 0 (frac_end - int_end - 1) in
  if mantissa_digits = 0 then None
  else begin
    (* An exponent needs at least one digit; otherwise the 'e' is a unit
       letter. *)
    let numeral_end =
      if frac_end < len && text.[frac_end] = 'e' then
        let digits_start =
          if frac_end + 1 < len && (text.[frac_end + 1] = '+' || text.[frac_end + 1] = '-') then
            frac_end + 2
          else frac_end + 1
        in
        let exp_end = skip is_digit digits_start in
        if exp_end > digits_start then exp_end else frac_end
      else frac_end
    in
    let base = float_of_string (String.sub text 0 numeral_end) in
    let rest = String.sub text numeral_end (len - numeral_end) in
    let value, unit_start =
      match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix rest) scale_factors with
      | Some (prefix, multiplier) -> (base *. multiplier, numeral_end + String.length prefix)
      | None -> (base, numeral_end)
    in
    let units_ok =
      skip is_letter unit_start = len && not (unit_start < len && text.[unit_start] = 'x')
    in
    if units_ok && Float.is_finite value then Some value else None
  end

(* --- deck parsing --------------------------------------------------------- *)

type parse_state = {
  mutable next_node : int;
  nodes : (string, int) Hashtbl.t;
  models : (string, Mos.params) Hashtbl.t;
  mutable elements : Circuit.element list;
  mutable title : string option;
}

let node_index state name =
  let key = lowercase name in
  if key = "0" || key = "gnd" then 0
  else
    match Hashtbl.find_opt state.nodes key with
    | Some index -> index
    | None ->
        let index = state.next_node in
        state.next_node <- index + 1;
        Hashtbl.add state.nodes key index;
        index

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let value_or_error lineno what text =
  match parse_value text with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "line %d: bad %s value %S" lineno what text)

(* Split "W=10u" style assignments. *)
let parse_assignment token =
  match String.index_opt token '=' with
  | None -> None
  | Some i ->
      Some (lowercase (String.sub token 0 i), String.sub token (i + 1) (String.length token - i - 1))

let default_models =
  [ ("nmos", Mos.default_nmos); ("pmos", Mos.default_pmos) ]

let parse_model_card state lineno tokens =
  (* .model NAME NMOS|PMOS (K=V ...) — parentheses optional. *)
  match tokens with
  | _model :: name :: kind :: rest ->
      let base =
        match lowercase kind with
        | "nmos" -> Ok Mos.default_nmos
        | "pmos" -> Ok Mos.default_pmos
        | other -> Error (Printf.sprintf "line %d: unknown model kind %S" lineno other)
      in
      let* base = base in
      let cleaned =
        List.filter_map
          (fun token ->
            let stripped =
              String.concat ""
                (String.split_on_char '(' (String.concat "" (String.split_on_char ')' token)))
            in
            if stripped = "" then None else Some stripped)
          rest
      in
      let apply params token =
        match parse_assignment token with
        | None -> Error (Printf.sprintf "line %d: expected KEY=VALUE, got %S" lineno token)
        | Some (key, text) -> (
            let* v = value_or_error lineno key text in
            match key with
            | "vto" | "vth" -> Ok { params with Mos.vth0 = v }
            | "kp" -> Ok { params with Mos.kp = v }
            | "lambda" -> Ok { params with Mos.lambda = v }
            | "gamma" -> Ok { params with Mos.gamma = v }
            | "phi" -> Ok { params with Mos.phi = v }
            | "cox" -> Ok { params with Mos.cox = v }
            | "cov" -> Ok { params with Mos.cov = v }
            | "cj" -> Ok { params with Mos.cj = v }
            | other -> Error (Printf.sprintf "line %d: unknown model parameter %S" lineno other))
      in
      let rec fold params = function
        | [] -> Ok params
        | token :: rest ->
            let* params = apply params token in
            fold params rest
      in
      let* params = fold base cleaned in
      Hashtbl.replace state.models (lowercase name) params;
      Ok ()
  | _ -> Error (Printf.sprintf "line %d: malformed .model card" lineno)

let parse_element state lineno tokens =
  match tokens with
  | [] -> Ok ()
  | name :: rest -> (
      let kind = Char.lowercase_ascii name.[0] in
      let node = node_index state in
      let add e = state.elements <- e :: state.elements in
      match (kind, rest) with
      | 'r', [ n1; n2; v ] ->
          let* ohms = value_or_error lineno "resistance" v in
          if ohms <= 0. then Error (Printf.sprintf "line %d: non-positive resistance" lineno)
          else Ok (add (Circuit.Resistor { name; n1 = node n1; n2 = node n2; ohms }))
      | 'c', [ n1; n2; v ] ->
          let* farads = value_or_error lineno "capacitance" v in
          if farads <= 0. then Error (Printf.sprintf "line %d: non-positive capacitance" lineno)
          else Ok (add (Circuit.Capacitor { name; n1 = node n1; n2 = node n2; farads }))
      | 'v', pos :: neg :: rest ->
          (* Forms: V n+ n- <dc>, V n+ n- DC <dc> [AC <ac>]. *)
          let rec scan dc ac = function
            | [] -> Ok (dc, ac)
            | "DC" :: v :: more | "dc" :: v :: more ->
                let* dc = value_or_error lineno "dc" v in
                scan dc ac more
            | "AC" :: v :: more | "ac" :: v :: more ->
                let* ac = value_or_error lineno "ac" v in
                scan dc ac more
            | v :: more ->
                let* dc = value_or_error lineno "dc" v in
                scan dc ac more
          in
          let* dc, ac = scan 0. 0. rest in
          Ok (add (Circuit.Vsource { name; pos = node pos; neg = node neg; dc; ac }))
      | 'i', [ n1; n2; v ] ->
          (* SPICE convention: current flows from n1 through the source to
             n2 (out of n1, into n2). *)
          let* amps = value_or_error lineno "current" v in
          Ok (add (Circuit.Isource { name; from_node = node n1; to_node = node n2; amps }))
      | 'g', [ op; on; ip; in_; v ] ->
          let* gm = value_or_error lineno "transconductance" v in
          Ok
            (add
               (Circuit.Vccs
                  {
                    name;
                    out_pos = node op;
                    out_neg = node on;
                    in_pos = node ip;
                    in_neg = node in_;
                    gm;
                  }))
      | 'm', d :: g :: s :: b :: model :: params ->
          let* mos_params =
            match Hashtbl.find_opt state.models (lowercase model) with
            | Some p -> Ok p
            | None -> (
                match List.assoc_opt (lowercase model) default_models with
                | Some p -> Ok p
                | None -> Error (Printf.sprintf "line %d: unknown MOS model %S" lineno model))
          in
          let rec scan w l = function
            | [] -> Ok (w, l)
            | token :: more -> (
                match parse_assignment token with
                | Some ("w", v) ->
                    let* w = value_or_error lineno "width" v in
                    scan (Some w) l more
                | Some ("l", v) ->
                    let* l = value_or_error lineno "length" v in
                    scan w (Some l) more
                | Some (other, _) ->
                    Error (Printf.sprintf "line %d: unknown device parameter %S" lineno other)
                | None -> Error (Printf.sprintf "line %d: expected W=/L=, got %S" lineno token))
          in
          let* w, l = scan None None params in
          let* w = match w with Some w -> Ok w | None -> Error (Printf.sprintf "line %d: missing W=" lineno) in
          let* l = match l with Some l -> Ok l | None -> Error (Printf.sprintf "line %d: missing L=" lineno) in
          Ok
            (add
               (Circuit.Mosfet
                  {
                    name;
                    drain = node d;
                    gate = node g;
                    source = node s;
                    bulk = node b;
                    params = mos_params;
                    w;
                    l;
                  }))
      | ('r' | 'c' | 'v' | 'i' | 'g' | 'm'), _ ->
          Error (Printf.sprintf "line %d: wrong number of fields for element %s" lineno name)
      | _ -> Error (Printf.sprintf "line %d: unknown element type %S" lineno name))

let is_card line =
  match line.[0] with
  | 'r' | 'R' | 'c' | 'C' | 'v' | 'V' | 'i' | 'I' | 'g' | 'G' | 'm' | 'M' | '.' -> true
  | _ -> false

let parse source =
  let state =
    {
      next_node = 1;
      nodes = Hashtbl.create 16;
      models = Hashtbl.create 4;
      elements = [];
      title = None;
    }
  in
  let lines = String.split_on_char '\n' source in
  (* Pass 1: tokenize cards, handle directives, and register every .model —
     SPICE decks may reference a model before its card appears.  Element
     cards are deferred to pass 2. *)
  let rec collect acc lineno first = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        let line =
          (* strip comments: '*' at start, ';' anywhere *)
          match String.index_opt raw ';' with
          | Some i -> String.sub raw 0 i
          | None -> raw
        in
        let line = String.trim line in
        if line = "" || line.[0] = '*' then collect acc (lineno + 1) first rest
        else if first && not (is_card line) then begin
          state.title <- Some line;
          collect acc (lineno + 1) false rest
        end
        else begin
          let tokens = List.filter (fun s -> s <> "") (String.split_on_char ' ' line) in
          let tokens = List.concat_map (String.split_on_char '\t') tokens in
          let tokens = List.filter (fun s -> s <> "") tokens in
          match tokens with
          | [] -> collect acc (lineno + 1) false rest
          | first_token :: _ -> (
              let directive = lowercase first_token in
              if directive = ".end" then Ok (List.rev acc)
              else if directive = ".model" then
                let* () = parse_model_card state lineno tokens in
                collect acc (lineno + 1) false rest
              else if String.length directive > 0 && directive.[0] = '.' then
                Error (Printf.sprintf "line %d: unsupported directive %s" lineno first_token)
              else collect ((lineno, tokens) :: acc) (lineno + 1) false rest)
        end)
  in
  let* element_cards = collect [] 1 true lines in
  let rec build = function
    | [] -> Ok ()
    | (lineno, tokens) :: rest ->
        let* () = parse_element state lineno tokens in
        build rest
  in
  let* () = build element_cards in
  match List.rev state.elements with
  | [] -> Error "no elements in the deck"
  | elements -> (
      match Circuit.make elements with
      | circuit ->
          let node_names = Hashtbl.fold (fun name index acc -> (name, index) :: acc) state.nodes [] in
          Ok { circuit; node_names = List.sort compare node_names; title = state.title }
      | exception Invalid_argument msg -> Error msg)

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | channel ->
      Fun.protect
        ~finally:(fun () -> close_in channel)
        (fun () -> parse (really_input_string channel (in_channel_length channel)))

let node t name =
  let key = lowercase name in
  if key = "0" || key = "gnd" then 0
  else
    match List.assoc_opt key t.node_names with
    | Some index -> index
    | None -> raise Not_found
