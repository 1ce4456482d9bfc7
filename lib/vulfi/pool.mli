(** A fixed-size OCaml 5 domain worker pool.

    A pool of [jobs] starts [jobs - 1] worker domains; the thread
    calling {!map} acts as the remaining worker, so a batch runs on
    exactly [jobs] domains. The pool persists across {!map} calls,
    keeping domain spawning off the per-batch path. *)

type t

(** [map t f arr] applies [f] to every element, distributing items
    across the pool's domains via a shared cursor (items of uneven cost
    self-balance). Result order matches [arr] regardless of which
    domain ran an item. An exception raised by [f] is re-raised in the
    caller after the batch drains (first one wins). Not reentrant: do
    not call [map] from within [f]. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [with_pool ~jobs f] runs [f] with a fresh pool, shutting it down on
    exit (normal or exceptional). *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
