(** Transactional skiplist (Figure 2's application) with per-level
    forward pointers in [Tvar]s and deterministic level choice.  Towers
    are capped at 8 levels, right for the paper's 256-key
    micro-benchmarks. *)

include Intset.S
