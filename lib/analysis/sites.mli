(** Fault-site enumeration and classification (paper §II-B and §II-C).

    A fault {e target} is the Lvalue of a defining instruction, or the
    value operand of a (possibly masked) store. A vector target of
    length Vl contributes Vl scalar fault {e sites}, one per lane.
    Targets are classified by their forward slices: pure-data sites
    reach neither address computation nor control flow; control sites
    reach a conditional branch; address sites reach a [getelementptr].
    Control and address overlap (paper Fig 2). *)

type category = Pure_data | Control | Address

val category_name : category -> string

(** Parse ["pure-data"], ["control"], ["address"] (and common aliases). *)
val category_of_string : string -> category option

val all_categories : category list

type target_kind =
  | Lvalue  (** result register of a defining instruction *)
  | Store_value  (** value operand of a [store] *)
  | Maskstore_value  (** value operand of a masked-store intrinsic *)

type target = {
  t_func : string;
  t_block : string;
  t_instr : Vir.Instr.t;
  t_kind : target_kind;
  t_lanes : int;  (** scalar fault sites contributed *)
  t_is_vector : bool;  (** vector instruction per the paper's defn *)
  t_is_control : bool;
  t_is_address : bool;
}

val is_pure_data : target -> bool

val in_category : target -> category -> bool

(** Enumerate all fault targets of a function/module, excluding VULFI
    runtime calls and detector-synthesised instructions. *)
val targets_of_func : Vir.Func.t -> target list

val targets_of_module : Vir.Vmodule.t -> target list

(** Restrict to one category, optionally to a set of functions. *)
val select : ?funcs:string list -> target list -> category -> target list

(** Total scalar fault sites across a target list. *)
val total_sites : target list -> int
