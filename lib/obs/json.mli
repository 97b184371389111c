(** Minimal JSON reader/writer shared by the trace codec and the checkpoint
    snapshot codec.

    The reader covers exactly the subset the library's encoders emit:
    objects, arrays, strings, literals, and numbers kept as raw lexemes so
    63-bit integers survive without a round-trip through [float].  The
    writer side provides the encoding conventions every codec in the
    repository uses: finite floats as {!Float_text.add_g17} writes them
    (exactly [%.17g], which round-trips every finite double through
    [float_of_string]) with the three non-finite values travelling as the
    JSON strings ["NaN"], ["Infinity"] and ["-Infinity"], and strings with
    full escaping. *)

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

(** {2 Encoding helpers} *)

val add_float : Buffer.t -> float -> unit
(** {!Float_text.add_g17} for a finite float, or a quoted ["NaN"] /
    ["Infinity"] / ["-Infinity"]. *)

val add_string : Buffer.t -> string -> unit
(** Quoted and escaped. *)
