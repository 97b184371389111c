(** Simplification after generation (paper section 5.1) and final tradeoff
    filtering.

    After the evolutionary run, each model on the (train error, complexity)
    front is pruned by PRESS-guided forward regression — basis functions
    that harm leave-one-out predictive ability are dropped and the linear
    weights refit — then the set is evaluated on testing data and filtered
    down to the models on the (test error, complexity) tradeoff.

    All basis evaluation reuses the dataset's memoized columns: passing
    the same {!Caffeine_io.Dataset.t} the search ran on makes SAG
    essentially free of re-evaluation.  On streamed (chunked) data each
    model's bases are evaluated in one fused pass, and the refits reuse
    those columns instead of streaming the data again. *)

type scored = {
  model : Model.t;
  test_error : float;
}

val simplify_model :
  ?executor:Caffeine_par.Executor.t ->
  ?trace:Caffeine_obs.Trace.sink ->
  ?model_index:int ->
  wb:float ->
  wvc:float ->
  Model.t ->
  data:Caffeine_io.Dataset.t ->
  targets:float array ->
  Model.t
(** PRESS forward selection over the model's own basis functions, refit,
    then algebraic cleanup ({!Model.simplify}).  The result never has more
    bases than the input model.  Candidate PRESS scores are evaluated
    through [executor] (default sequential); the selected set is identical
    under every backend.  With [trace], every accepted forward-selection
    round is emitted as a {!Caffeine_obs.Trace.Sag_round} (PRESS before and
    after the round) and the overall pruning as a
    {!Caffeine_obs.Trace.Sag_model}, both tagged with [model_index]
    (default 0).  Trace content is deterministic: rounds commit on the
    calling domain in selection order whatever the pool size. *)

val process_front :
  ?executor:Caffeine_par.Executor.t ->
  ?trace:Caffeine_obs.Trace.sink ->
  ?already:Model.t list ->
  ?on_model:(int -> Model.t -> unit) ->
  wb:float ->
  wvc:float ->
  Model.t list ->
  data:Caffeine_io.Dataset.t ->
  targets:float array ->
  Model.t list
(** Apply {!simplify_model} to every front member (tagging records with the
    member's position in [front]) and re-extract the nondominated
    (train error, complexity) set, sorted by complexity.

    [already] (default [[]]) is a prefix of previously simplified results —
    a resumed run's checkpointed SAG progress: the first
    [List.length already] members are taken from it verbatim instead of
    being re-simplified.  [on_model] observes each freshly simplified
    member (index in [front], result) as it completes;
    [Search.run_and_simplify] checkpoints from this callback.

    A column the dataset does not hold yet is evaluated on its own tape
    when a selection loop first reads it. *)

val test_tradeoff :
  ?trace:Caffeine_obs.Trace.sink ->
  Model.t list ->
  data:Caffeine_io.Dataset.t ->
  targets:float array ->
  scored list
(** Score each model on testing data and keep only models on the
    (test error, complexity) tradeoff, sorted by increasing complexity.
    Each model's columns are evaluated when its score first reads them.

    When {e every} model's test error is non-finite (the whole front blew
    up on out-of-range testing samples), an empty result would silently
    discard the run — instead the full front is returned ordered by
    (train error, complexity), and the condition is surfaced as a
    {!Caffeine_obs.Trace.Warning} on [trace] plus a warning on the
    ["caffeine.sag"] {!Logs} source. *)

val best_within :
  scored list -> train_cap:float -> test_cap:float -> scored option
(** The least complex model with train and test errors both at or below the
    caps (the paper's "all models with <10% error" query). *)

val at_train_error : scored list -> train_cap:float -> scored option
(** The model whose training error best matches (is at most, else closest
    to) [train_cap] — used to compare against the posynomial baseline at
    matched training error. *)
