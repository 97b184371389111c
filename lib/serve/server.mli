(** The serving loop: a line-oriented JSON protocol over stdio or a Unix
    socket.

    {2 Protocol}

    One request per line, one response line per request (blank input lines
    are skipped).  Every request is a JSON object with an ["op"] field:

    - [{"op":"predict","rows":[[x0,...,xD-1],...]}] — evaluate every model
      of the current front at each input row.  Response:
      [{"ok":true,"models":M,"rows":N,"outputs":[[...],...]}] where
      [outputs.(k)] is model [k]'s prediction at each row, bit-identical
      to {!Caffeine.Model.predict} of the loaded model.
    - [{"op":"front"}] — list the served models:
      [{"ok":true,"path":...,"generation":G,"front":[{"index":...,
      "complexity":...,"train_error":...,"bases":...,"expression":...}]}].
    - [{"op":"explain","index":K,"language":"text"|"c"|"verilog-a"}] —
      render model [K] through the {!Caffeine.Export} printers (or the
      paper-style infix for ["text"], the default).
    - [{"op":"stats"}] — request/error/reload counters, the served front's
      identity, and per-endpoint latency histograms.

    A request that cannot be served answers
    [{"ok":false,"error":TYPE,"message":...}] with [TYPE] one of
    ["parse_error"] (line is not valid JSON), ["bad_request"] (not an
    object, unknown op, missing or mistyped field, wrong row width),
    ["non_finite_input"] (a predict row holds NaN or ±∞) and
    ["out_of_range"] (explain index outside the front) — the server never
    dies on bad input.

    {2 Lifecycle}

    With hot reload enabled the registry is polled before each request
    ({!Registry.check_reload}): the swap is atomic and the in-flight
    request finishes on the front it captured.  {!drain} (installed on
    SIGTERM by {!install_sigterm}) is graceful: the request being
    processed completes and its response is flushed before the loop
    returns, and an idle loop wakes from its poll to exit; the CLI then
    exits 0. *)

module Metrics = Caffeine_obs.Metrics

type config

val config : ?metrics:Metrics.t -> ?reload:bool -> Registry.t -> config
(** [reload] (default [false]) polls the registry before each request.
    Counters ([serve.requests], [serve.errors], [serve.predictions]) and
    per-endpoint latency histograms ([serve.latency.<op>], seconds)
    register on [metrics] (default {!Metrics.default}). *)

val drain : config -> unit
(** Request a graceful stop: the in-flight request (if any) completes and
    its response is written, then the serving loop returns. *)

val draining : config -> bool

val install_sigterm : config -> unit
(** Route SIGTERM to {!drain}.  Call once, from the main domain. *)

val handle_line : config -> string -> string
(** Process one request line and return the response line (no trailing
    newline).  Exposed for tests and the bench harness; {!serve_fds} is
    this in a read/write loop. *)

val serve_fds :
  ?on_line:(string -> unit) -> config -> input:Unix.file_descr -> output:Unix.file_descr -> unit
(** Serve until end-of-input or {!drain}.  The reader polls with a short
    select timeout so a drain requested while idle is honored promptly;
    EINTR and partial writes are retried.  [on_line] fires after a request
    line is read and before it is handled (a test seam: draining from it
    pins the finish-in-flight contract). *)

val serve_socket : ?on_ready:(unit -> unit) -> config -> path:string -> unit
(** Bind a Unix-domain stream socket at [path] (replacing a stale file)
    and serve accepted connections sequentially until {!drain}.  The
    socket file is unlinked on return; [on_ready] fires once listening. *)
