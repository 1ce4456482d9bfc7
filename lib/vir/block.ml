(** Basic blocks: a label plus an instruction sequence ending in exactly
    one terminator. The instruction list is mutable so that passes
    (instrumentation, detector insertion) can rewrite it in place. *)

type t = {
  label : string;
  mutable instrs : Instr.t list;
}

let create ?(instrs = []) label = { label; instrs }

let terminator b =
  match List.rev b.instrs with
  | last :: _ when Instr.is_terminator last -> Some last
  | _ -> None

let successors b =
  match terminator b with
  | Some t -> Instr.successors t
  | None -> []

let phis b = List.filter Instr.is_phi b.instrs

(* Insert [news] immediately after the instruction with id [after]. *)
let insert_after b ~after news =
  let rec go = function
    | [] -> []
    | i :: rest when i.Instr.id = after && Instr.defines i ->
      i :: (news @ rest)
    | i :: rest -> i :: go rest
  in
  b.instrs <- go b.instrs

(* Insert [news] immediately before the physically-identical instruction
   [before] (distinguishes duplicate instructions, e.g. two equal
   stores). *)
let insert_before_phys b ~before news =
  let rec go = function
    | [] -> []
    | i :: rest when i == before -> news @ (i :: rest)
    | i :: rest -> i :: go rest
  in
  b.instrs <- go b.instrs

(* Replace the physically-identical instruction [old_i] with [new_i]. *)
let replace_phys b ~old_i ~new_i =
  b.instrs <- List.map (fun i -> if i == old_i then new_i else i) b.instrs

(* Insert [news] just before the block terminator. *)
let insert_before_terminator b news =
  match List.rev b.instrs with
  | last :: rev_rest when Instr.is_terminator last ->
    b.instrs <- List.rev rev_rest @ news @ [ last ]
  | _ -> b.instrs <- b.instrs @ news

(* Insert [news] after the phi cluster at the top of the block. *)
let insert_after_phis b news =
  let phis, rest = List.partition Instr.is_phi b.instrs in
  b.instrs <- phis @ news @ rest

(* Apply [f] to every instruction, in place. *)
let map_instrs b f = b.instrs <- List.map f b.instrs

(* Retarget branch labels with [f] (used when splitting edges). *)
let retarget b f =
  let rewrite i =
    match i.Instr.op with
    | Instr.Br l -> { i with Instr.op = Instr.Br (f l) }
    | Instr.Condbr (c, l1, l2) ->
      { i with Instr.op = Instr.Condbr (c, f l1, f l2) }
    | _ -> i
  in
  map_instrs b rewrite
