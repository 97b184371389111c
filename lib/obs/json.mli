(** Minimal JSON reader and writer: the one representation every codec
    in the library reads and writes.

    The reader covers exactly the subset the library's writers emit:
    objects, arrays, strings, literals, and numbers kept as raw lexemes so
    63-bit integers survive without a round-trip through [float].  The
    writer is {!to_string} of a value built with {!int}, {!float} and the
    constructors; the checkpoint snapshot and island lines, trace records,
    the process backend's job, hello and error lines, and [predict --dump]
    are all written that way.  Its conventions: finite floats as
    {!Float_text.add_g17} writes them (exactly [%.17g], which round-trips
    every finite double through [float_of_string]), the three non-finite
    values as the JSON strings ["NaN"], ["Infinity"] and ["-Infinity"],
    and strings with full escaping.  The serve protocol's responses stream
    straight into a buffer with {!add_float} and {!add_string}, which
    spell floats and strings the same way. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** raw numeric lexeme, converted per field *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse_exn} and by the decoding helpers below on malformed
    or mistyped input. *)

val parse_exn : string -> t
(** Parse one complete JSON value; raises {!Parse_error}. *)

val parse : string -> (t, string) result
(** {!parse_exn} with the error captured. *)

(** {2 Decoding helpers}

    All raise {!Parse_error} with the offending field name on a type or
    presence mismatch. *)

val obj : t -> (string * t) list
val member : (string * t) list -> string -> t
val to_int : string -> t -> int
val to_float : string -> t -> float
(** Accepts numeric lexemes and the non-finite string encodings. *)

val to_str : string -> t -> string
val to_arr : string -> t -> t list

val int_of : (string * t) list -> string -> int
val float_of : (string * t) list -> string -> float
val str_of : (string * t) list -> string -> string
val arr_of : (string * t) list -> string -> t list
val int_array_of : (string * t) list -> string -> int array

(** {2 Encoding} *)

val int : int -> t
(** [Num (string_of_int n)]. *)

val float : float -> t
(** A finite float as the number {!Float_text.g17} spells; NaN, [infinity]
    and [neg_infinity] as the strings ["NaN"], ["Infinity"] and
    ["-Infinity"].  {!to_float} reads every such value back bit for bit
    (a NaN as some NaN). *)

val to_string : t -> string
(** Compact text, no whitespace: members in list order, names and strings
    escaped as {!add_string} escapes them, [Num] lexemes as they are. *)

val add_float : Buffer.t -> float -> unit
(** Append the text {!to_string} writes for [float v]. *)

val add_string : Buffer.t -> string -> unit
(** Quoted and escaped. *)
