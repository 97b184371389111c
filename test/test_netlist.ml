(* Tests for the SPICE-deck netlist parser: value notation, card parsing,
   models, and end-to-end simulation of parsed circuits. *)

module Netlist = Caffeine_spice.Netlist
module Circuit = Caffeine_spice.Circuit
module Dc = Caffeine_spice.Dc
module Ac = Caffeine_spice.Ac
module Mos = Caffeine_spice.Mos

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let parse_ok source =
  match Netlist.parse source with
  | Ok deck -> deck
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* --- engineering values --- *)

let test_parse_value_suffixes () =
  let check text expected =
    match Netlist.parse_value text with
    | Some v -> check_close text expected v
    | None -> Alcotest.failf "no parse for %S" text
  in
  check "10k" 10e3;
  check "2.5u" 2.5e-6;
  check "10p" 10e-12;
  check "3meg" 3e6;
  check "1.5n" 1.5e-9;
  check "4f" 4e-15;
  check "7m" 7e-3;
  check "2g" 2e9;
  check "1t" 1e12;
  check "42" 42.;
  check "-3.3" (-3.3);
  check "1e-6" 1e-6;
  Alcotest.(check bool) "garbage rejected" true (Netlist.parse_value "xyz" = None);
  Alcotest.(check bool) "empty rejected" true (Netlist.parse_value "" = None)

(* --- basic cards --- *)

let test_parse_rc_divider () =
  let deck = parse_ok "test divider\nV1 in 0 DC 10\nR1 in out 1k\nR2 out 0 3k\n.end\n" in
  Alcotest.(check (option string)) "title" (Some "test divider") deck.Netlist.title;
  Alcotest.(check int) "two named nodes" 2 (List.length deck.Netlist.node_names);
  match Dc.solve deck.Netlist.circuit with
  | Error msg -> Alcotest.failf "solve failed: %s" msg
  | Ok solution ->
      check_close "divider output" 7.5 (Dc.node_voltage solution (Netlist.node deck "out"))

let test_parse_ground_aliases () =
  let deck = parse_ok "V1 a gnd 1\nR1 a GND 1k\n" in
  Alcotest.(check int) "one named node" 1 (List.length deck.Netlist.node_names);
  Alcotest.(check int) "gnd is node zero" 0 (Netlist.node deck "GND")

let test_parse_current_source_convention () =
  (* I1 0 n 1m pushes current into n. *)
  let deck = parse_ok "I1 0 n 1m\nR1 n 0 1k\n" in
  match Dc.solve deck.Netlist.circuit with
  | Error msg -> Alcotest.failf "solve failed: %s" msg
  | Ok solution -> check_close "1 volt" 1.0 (Dc.node_voltage solution (Netlist.node deck "n"))

let test_parse_vccs () =
  let deck = parse_ok "V1 in 0 DC 1\nG1 out 0 in 0 2m\nRL out 0 1k\n" in
  match Dc.solve deck.Netlist.circuit with
  | Error msg -> Alcotest.failf "solve failed: %s" msg
  | Ok solution -> check_close "gm*v*r" (-2.) (Dc.node_voltage solution (Netlist.node deck "out"))

let test_parse_ac_source_and_sweep () =
  let deck = parse_ok "VIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n" in
  match Dc.solve deck.Netlist.circuit with
  | Error msg -> Alcotest.failf "solve failed: %s" msg
  | Ok dc ->
      let sweep =
        Ac.transfer ~circuit:deck.Netlist.circuit ~dc ~input:"VIN"
          ~output:(Netlist.node deck "out")
          ~freqs:[| 10. |]
      in
      check_close ~tol:1e-3 "passband" 1. (Complex.norm sweep.(0).Ac.response)

let test_parse_mosfet_with_model_card () =
  let deck =
    parse_ok
      "IB 0 d 50u\n\
       M1 d d 0 0 MYNMOS W=50u L=1u\n\
       .model MYNMOS NMOS (VTO=0.7 KP=120u LAMBDA=0.05 GAMMA=0.4 PHI=0.65)\n\
       .end\n"
  in
  match Dc.solve deck.Netlist.circuit with
  | Error msg -> Alcotest.failf "solve failed: %s" msg
  | Ok solution ->
      let bias = Dc.mos_bias solution "M1" in
      Alcotest.(check bool) "saturation" true (bias.Dc.op.Mos.region = `Saturation);
      check_close ~tol:1e-3 "carries bias current" 50e-6 bias.Dc.op.Mos.ids

let test_parse_mosfet_default_models () =
  let deck = parse_ok "IB 0 d 20u\nM1 d d 0 0 NMOS W=20u L=2u\n" in
  match Dc.solve deck.Netlist.circuit with
  | Error msg -> Alcotest.failf "solve failed: %s" msg
  | Ok solution ->
      Alcotest.(check bool) "built-in nmos used" true
        ((Dc.mos_bias solution "M1").Dc.vgs > 0.7)

let test_parse_comments_and_continuations () =
  let deck = parse_ok "* a comment line\nR1 a 0 1k ; trailing comment\n\nV1 a 0 5\n" in
  Alcotest.(check int) "two elements" 2 (List.length (Circuit.elements deck.Netlist.circuit))

let test_parse_errors_carry_line_numbers () =
  let expect_error source fragment =
    match Netlist.parse source with
    | Ok _ -> Alcotest.failf "expected failure for %S" source
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S (got %S)" source fragment msg)
          true
          (let rec contains i =
             if i + String.length fragment > String.length msg then false
             else if String.sub msg i (String.length fragment) = fragment then true
             else contains (i + 1)
           in
           contains 0)
  in
  expect_error "R1 a 0 zzz\n" "line 1";
  expect_error "R1 a 0\n" "wrong number of fields";
  expect_error "V1 a 0 1\nX1 a 0 1k\n" "unknown element";
  expect_error "M1 d g s b NOPE W=1u L=1u\n" "unknown MOS model";
  expect_error "M1 d g s b NMOS L=1u\n" "missing W=";
  expect_error ".tran 1n 1u\n" "unsupported directive";
  expect_error "" "no elements";
  expect_error "R1 a 0 -5\n" "non-positive";
  expect_error "V1 a 0 1\nR1 a 0 nan\n" "line 2"

let test_parse_end_stops_reading () =
  let deck = parse_ok "R1 a 0 1k\n.end\nthis is not a card and must be ignored\n" in
  Alcotest.(check int) "one element" 1 (List.length (Circuit.elements deck.Netlist.circuit))

let test_roundtrip_ota_like_deck () =
  (* A miniature amplifier deck end-to-end: parse, solve, measure gain. *)
  let source =
    "demo: common-source amp\n\
     VDD vdd 0 DC 5\n\
     VIN in 0 DC 1.1 AC 1\n\
     M1 out in 0 0 NMOS W=20u L=2u\n\
     R1 vdd out 50k\n\
     C1 out 0 1p\n\
     .end\n"
  in
  let deck = parse_ok source in
  match Dc.solve deck.Netlist.circuit with
  | Error msg -> Alcotest.failf "solve failed: %s" msg
  | Ok dc ->
      let out = Netlist.node deck "out" in
      let vout = Dc.node_voltage dc out in
      Alcotest.(check bool) "output inside the rails" true (vout > 0.2 && vout < 4.8);
      let freqs = Ac.log_frequencies ~start_hz:10. ~stop_hz:1e9 ~points_per_decade:10 in
      let sweep = Ac.transfer ~circuit:deck.Netlist.circuit ~dc ~input:"VIN" ~output:out ~freqs in
      Alcotest.(check bool) "inverting gain > 1" true (Ac.low_frequency_gain_db sweep > 0.)

let suite =
  [
    Alcotest.test_case "values: engineering suffixes" `Quick test_parse_value_suffixes;
    Alcotest.test_case "cards: rc divider" `Quick test_parse_rc_divider;
    Alcotest.test_case "cards: ground aliases" `Quick test_parse_ground_aliases;
    Alcotest.test_case "cards: current source" `Quick test_parse_current_source_convention;
    Alcotest.test_case "cards: vccs" `Quick test_parse_vccs;
    Alcotest.test_case "cards: ac source" `Quick test_parse_ac_source_and_sweep;
    Alcotest.test_case "cards: mosfet with .model" `Quick test_parse_mosfet_with_model_card;
    Alcotest.test_case "cards: default models" `Quick test_parse_mosfet_default_models;
    Alcotest.test_case "comments" `Quick test_parse_comments_and_continuations;
    Alcotest.test_case "errors: line numbers" `Quick test_parse_errors_carry_line_numbers;
    Alcotest.test_case ".end stops reading" `Quick test_parse_end_stops_reading;
    Alcotest.test_case "end-to-end amplifier deck" `Quick test_roundtrip_ota_like_deck;
  ]

(* --- robustness: the parser never raises on garbage --- *)

let fuzz_property =
  QCheck.Test.make ~name:"netlist parser never raises" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun garbage ->
      match Netlist.parse garbage with Ok _ -> true | Error _ -> true)

let structured_fuzz_property =
  (* Random but card-shaped lines: mix of valid prefixes and junk fields. *)
  let token = QCheck.Gen.oneofl [ "R1"; "C2"; "V3"; "I4"; "M5"; "G6"; "a"; "0"; "1k"; "xx"; "W=1u"; ".model"; "NMOS" ] in
  let line = QCheck.Gen.(map (String.concat " ") (list_size (int_range 1 7) token)) in
  let deck = QCheck.Gen.(map (String.concat "\n") (list_size (int_range 1 8) line)) in
  QCheck.Test.make ~name:"card-shaped fuzz never raises" ~count:300 (QCheck.make deck)
    (fun source ->
      match Netlist.parse source with Ok _ -> true | Error _ -> true)

(* --- strict numerals: SPICE scale factors and unit letters --- *)

let test_parse_value_strict () =
  let bits = Option.map Int64.bits_of_float in
  let accepted =
    [
      ("1uF", 1e-6); ("10mA", 10e-3); ("2.2kOhm", 2.2e3); ("1megohm", 1e6); ("1MEG", 1e6);
      ("3mil", 3. *. 25.4e-6); ("5.", 5.); (".5", 0.5); ("-.5p", -0.5e-12); ("+2", 2.);
      ("1e3", 1e3); ("1E-3k", 1.); ("1e", 1.); ("2.5e+2Hz", 250.); ("007", 7.);
    ]
  in
  List.iter
    (fun (text, expected) ->
      match Netlist.parse_value text with
      | Some v -> Alcotest.(check (float 1e-12)) text expected v
      | None -> Alcotest.failf "%S refused" text)
    accepted;
  List.iter
    (fun text ->
      Alcotest.(check (option (float 0.))) text None (Netlist.parse_value text))
    [
      "nan"; "NaN"; "inf"; "-infinity"; "infinity"; "1_000"; "0x10"; "0xff"; "1e400"; ".";
      "-"; "e5"; "1.2.3"; "1k2"; "1 k"; "10u)"; "1e-"; "k";
    ];
  (* Unit letters are ignored without touching the bits of the scaled
     value, and a bare numeral is exactly [float_of_string]. *)
  List.iter
    (fun (with_unit, bare) ->
      Alcotest.(check (option int64)) with_unit
        (bits (Netlist.parse_value bare))
        (bits (Netlist.parse_value with_unit)))
    [ ("1uF", "1u"); ("10mA", "10m"); ("2.2kOhm", "2.2k"); ("1megohm", "1meg"); ("47pF", "47p") ];
  List.iter
    (fun text ->
      Alcotest.(check (option int64)) text
        (bits (Some (float_of_string text)))
        (bits (Netlist.parse_value text)))
    [ "0.1"; "1.1"; "3.3e-7"; "-2.5"; "123456789.123456789" ]

let suite =
  suite
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ fuzz_property; structured_fuzz_property ]
  @ [ Alcotest.test_case "values: strict numerals and unit letters" `Quick test_parse_value_strict ]
