(** Fault-site enumeration and classification (paper §II-B, §II-C).

    A fault *target* is the Lvalue of a defining instruction, or the
    value operand of a (possibly masked) store. A vector target of
    length Vl contributes Vl scalar fault *sites*, one per lane.

    Each target is classified by its forward slice:
    - pure-data: no [getelementptr] and no control-flow instruction;
    - control: at least one control-flow instruction;
    - address: at least one [getelementptr].
    Control and address overlap (Fig 2); pure-data excludes both. *)

type category = Pure_data | Control | Address

let category_name = function
  | Pure_data -> "pure-data"
  | Control -> "control"
  | Address -> "address"

let category_of_string s =
  match String.lowercase_ascii s with
  | "pure-data" | "puredata" | "data" -> Some Pure_data
  | "control" | "ctrl" -> Some Control
  | "address" | "addr" -> Some Address
  | _ -> None

let all_categories = [ Pure_data; Control; Address ]

type target_kind =
  | Lvalue            (** result register of a defining instruction *)
  | Store_value       (** value operand of a [store] *)
  | Maskstore_value   (** value operand of a masked-store intrinsic *)

type target = {
  t_func : string;
  t_block : string;
  t_instr : Vir.Instr.t;
  t_kind : target_kind;
  t_lanes : int;          (** scalar fault sites contributed *)
  t_is_vector : bool;     (** vector instruction per the paper's defn *)
  t_is_control : bool;
  t_is_address : bool;
}

let is_pure_data t = (not t.t_is_control) && not t.t_is_address

let in_category t = function
  | Pure_data -> is_pure_data t
  | Control -> t.t_is_control
  | Address -> t.t_is_address

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Runtime functions injected by the instrumentor, and instructions
   synthesised by the detector passes (named "__det_*"), are not
   themselves fault targets: they are measurement/protection machinery,
   not program state. *)
let is_vulfi_runtime_call (i : Vir.Instr.t) =
  has_prefix "__det_" i.Vir.Instr.name
  ||
  match i.Vir.Instr.op with
  | Vir.Instr.Call (name, _) -> has_prefix "__vulfi_" name
  | _ -> false

(* Enumerate all fault targets of [f] with slice-based classification. *)
let targets_of_func (f : Vir.Func.t) : target list =
  let du = Defuse.build f in
  let classify_instr i =
    let slice = Slice.forward_slice_of_instr du i in
    (Slice.contains_control_flow slice, Slice.contains_gep slice)
  in
  (* Classification of a store's value: the slice of the value's
     defining registers' *own* flow already happened upstream; the store
     itself pins the value, so we classify by the store's address use:
     the paper treats stored values as data flowing to memory. *)
  let acc = ref [] in
  Vir.Func.iter_instrs f (fun b i ->
      if not (is_vulfi_runtime_call i) then begin
        if Vir.Instr.defines i then begin
          let is_control, is_address = classify_instr i in
          let lanes = max 1 (Vir.Vtype.lanes i.Vir.Instr.ty) in
          acc :=
            {
              t_func = f.Vir.Func.fname;
              t_block = b.Vir.Block.label;
              t_instr = i;
              t_kind = Lvalue;
              t_lanes = lanes;
              t_is_vector = Vir.Instr.is_vector_instr i;
              t_is_control = is_control;
              t_is_address = is_address;
            }
            :: !acc
        end;
        match i.Vir.Instr.op with
        | Vir.Instr.Store (v, _) ->
          let lanes = max 1 (Vir.Vtype.lanes (Vir.Instr.operand_ty v)) in
          acc :=
            {
              t_func = f.Vir.Func.fname;
              t_block = b.Vir.Block.label;
              t_instr = i;
              t_kind = Store_value;
              t_lanes = lanes;
              t_is_vector = Vir.Instr.is_vector_instr i;
              t_is_control = false;
              t_is_address = false;
            }
            :: !acc
        | Vir.Instr.Call (name, args)
          when Vir.Intrinsics.value_operand name <> None ->
          let ix = Option.get (Vir.Intrinsics.value_operand name) in
          let vty = Vir.Instr.operand_ty (List.nth args ix) in
          acc :=
            {
              t_func = f.Vir.Func.fname;
              t_block = b.Vir.Block.label;
              t_instr = i;
              t_kind = Maskstore_value;
              t_lanes = max 1 (Vir.Vtype.lanes vty);
              t_is_vector = true;
              t_is_control = false;
              t_is_address = false;
            }
            :: !acc
        | _ -> ()
      end);
  List.rev !acc

let targets_of_module (m : Vir.Vmodule.t) : target list =
  List.concat_map targets_of_func m.Vir.Vmodule.funcs

(* Restrict to one category, optionally to a set of functions. *)
let select ?(funcs : string list option) (targets : target list)
    (cat : category) =
  List.filter
    (fun t ->
      in_category t cat
      && match funcs with None -> true | Some fs -> List.mem t.t_func fs)
    targets

(* Total scalar fault sites in a target list. *)
let total_sites targets =
  List.fold_left (fun n t -> n + t.t_lanes) 0 targets
