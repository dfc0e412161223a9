(** The paper's Section-6 data structure [D_r = (R_r, Q_r, L_r)].

    [Q] is a priority queue of candidate facts for a [next]-rule [r],
    [L] the set of facts already used to fire [r], and [R] the facts
    known to be redundant.  Facts are grouped into {e r-congruence}
    classes (all arguments equal except the stage argument, the cost
    argument and the choice-FD-determined arguments); within a class at
    most one candidate lives in [Q] — the others are shadowed straight
    into [R].

    [R] is never materialized: redundant facts are only counted, which
    preserves the complexity bounds (the paper keeps [R] "as a simple
    set" purely to argue termination).

    Two compiler refinements over the paper's letter, both documented in
    DESIGN.md:

    - [~newer_wins:true] makes a fact from a strictly later stage shadow
      an older congruent fact regardless of cost.  This is required for
      rules whose body pins the candidate stage exactly (greedy TSP's
      [I = J + 1]): an older fact can never fire again, so letting it
      shadow a newer one would lose solutions.
    - [retrieve_least] takes a validity predicate and lazily re-checks
      the popped candidate (choice FDs, residual negated goals).  This
      is sound for stage-stratified programs because those conditions
      are monotone: once violated they stay violated.  An invalid pop is
      moved to [R] and its congruence class is reopened.

    [~shadow:false] disables congruence shadowing entirely (every fact
    is its own class); this is both the ablation knob and the correct
    mode for rules whose choice FDs make shadowing unsafe (e.g. the
    matching program, where the paper itself keeps all [e] arcs in
    [Q]). *)

type t
(** Facts are ints: the staged engine's source row ids.  A caller
    whose facts are values numbers them. *)

type stats = {
  inserted : int;  (** facts offered to [insert] *)
  shadowed : int;  (** facts sent to [R] at insertion time *)
  stale : int;  (** queue entries popped after being superseded *)
  invalid : int;  (** popped candidates rejected by the validity check *)
  used : int;  (** facts moved to [L] (returned by [retrieve_least]) *)
  max_queue : int;  (** high-water mark of [Q] *)
}

val create :
  ?shadow:bool ->
  ?newer_wins:bool ->
  width:int ->
  key:(int -> int -> int) ->
  cost_cmp:(int -> int -> int) ->
  ?stage:(int -> int) ->
  unit ->
  t
(** [create ~width ~key ~cost_cmp ()] builds an empty structure.  A
    fact's r-congruence class is the [width] ints [key f 0], ...,
    [key f (width - 1)] (the staged engine reads them straight out of
    the fact's cells); facts with equal ints are congruent.  The
    classes live in one int array, an open-addressing table of
    representative facts, so no key is ever built.  [cost_cmp] orders candidates
    (ties must be broken deterministically by the caller for reproducible
    runs), and [stage] is required when [newer_wins] is set.  Equal
    costs pop in insertion order.

    [Q] is a flat dual-array binary heap: push and pop allocate nothing
    beyond amortized growth. *)

val insert : t -> int -> unit
(** The paper's insertion operation, [O(log |Q|)] plus one hash probe. *)

val retrieve_least : t -> valid:(int -> bool) -> int option
(** The paper's retrieve-least operation: pops minimal live candidates,
    discards invalid ones into [R], moves the first valid one into [L]
    and returns it.  [None] when no valid candidate remains. *)

val queue_length : t -> int
(** Live entries currently in [Q] (stale entries excluded). *)

val stats : t -> stats
