(** The one comparison of a bench report against a committed baseline.
    Each bench module's [tracked] names its gated metrics; it reads both
    reports, and metrics match by name. *)

val metrics : string list list -> Jsonlite.t -> (string * float) list
(** The number at each path that holds one, named by its dotted path. *)

val regressions :
  tracked:(Jsonlite.t -> (string * float) list) ->
  budget:float ->
  baseline:Jsonlite.t ->
  Jsonlite.t ->
  (string * float * float) list
(** Every tracked metric of the report more than [budget] (a fraction)
    below the baseline, as [(metric, baseline, current)].  A metric
    missing on either side, or with a baseline at or below zero, is
    skipped. *)
