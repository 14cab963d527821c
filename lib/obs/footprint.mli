(** State-footprint accounting: every bounded accumulator in the tree
    answers "how many things are you tracking, and roughly how much
    heap do they hold?" as a plain value, and those values surface as
    the [nt_state_cards{component}] / [nt_state_words{component}]
    gauge pair a live scrape can watch.

    [words] is an {e estimate} — OCaml gives no per-value sizeof — built
    from per-entry structural costs (record fields + headers, table
    load factors). The contract is monotone honesty, not byte
    precision: a component whose cardinality doubles must roughly
    double its words, and the sum across components must stay within a
    small constant factor of the sampled major heap (the soak bench
    gates on 2x). *)

type t = { cards : int; words : int }

val zero : t
val v : cards:int -> words:int -> t

val add : t -> t -> t
(** Componentwise sum — footprints of sub-structures compose. *)

val scale : int -> t -> t
(** [scale n per_entry] for [n] homogeneous entries. *)

(** {1 Publication} *)

type pub
(** Resolved gauge pair for one component; resolve once, set often. *)

val publisher : Obs.t -> component:string -> pub
val set : pub -> t -> unit
