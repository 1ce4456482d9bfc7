(** Dominator analysis over a function's CFG: dominator sets, immediate
    dominators, dominance frontiers and back edges. *)

type t

val compute : Vir.Func.t -> t

val block_count : t -> int

(** Block index of a label, if the label exists. *)
val index_of : t -> string -> int option

val label_of : t -> int -> string

(** Does block [a] dominate block [b] (by label)? Unknown labels are
    never dominators. *)
val dominates : t -> string -> string -> bool

(** Immediate dominator label; [None] for the entry block. *)
val idom_of : t -> string -> string option

(** Dominance frontier per block label. *)
val dominance_frontier : t -> (string * string list) list

val preds_of : t -> int -> int list

(** Edges [u -> v] where [v] dominates [u] (loop back edges). *)
val back_edges : t -> (string * string) list
