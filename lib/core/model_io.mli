(** Textual save/load of fitted models.

    A model is persisted as the exact expression string the library prints
    (paper-style infix), so saved files are both machine-readable and
    directly human-readable.  A models file holds one model per line,
    optionally preceded by [# comment] lines and a [vars: a b c] header
    naming the design variables.

    Metadata that has no infix rendering travels on [#:] directive lines
    immediately before the model they describe — currently
    [#: train_error=<v>] with [<v>] a [%.17g] float or the lowercase
    [nan] / [infinity] / [-infinity] spellings, so non-finite stored
    errors round-trip exactly.  Directive lines start with [#], so files
    carrying them still load under readers that only skip comments, and
    files without them load with [train_error = nan] as before. *)

val save :
  path:string -> var_names:string array -> Model.t list -> unit
(** Write a models file (header + per-model [#:] metadata + expression). *)

val load :
  path:string -> wb:float -> wvc:float -> (string array * Model.t list, string) result
(** Read a models file back: returns the variable names from the [vars:]
    header and the parsed models, in file order.  Errors are one-line
    [file:line: message] strings naming the offending input. *)
