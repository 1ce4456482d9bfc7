open Vir

(* Member kinds of a generalized superblock chain, recorded in the rule
   so statistics and tests can see the shape that matched. *)
type member =
  | M_ibinop
  | M_fbinop
  | M_icmp
  | M_fcmp
  | M_select
  | M_cast
  | M_gep
  | M_load
  | M_store
  | M_reduce

type rule =
  | R_fbinop_fbinop
  | R_ibinop_ibinop
  | R_icmp_select
  | R_fcmp_select
  | R_cast_binop
  | R_gep_load
  | R_gep_store
  | R_load_binop
  | R_binop_store
  | R_load_binop_store
  | R_superblock of member list
      (** arbitrary-length linked run (length >= 2); a trailing
          [M_reduce] member marks a fused reduction tail *)

let rule_name = function
  | R_fbinop_fbinop -> "fbinop_fbinop"
  | R_ibinop_ibinop -> "ibinop_ibinop"
  | R_icmp_select -> "icmp_select"
  | R_fcmp_select -> "fcmp_select"
  | R_cast_binop -> "cast_binop"
  | R_gep_load -> "gep_load"
  | R_gep_store -> "gep_store"
  | R_load_binop -> "load_binop"
  | R_binop_store -> "binop_store"
  | R_load_binop_store -> "load_binop_store"
  | R_superblock ms -> (
    match List.rev ms with
    | M_reduce :: _ -> "reduce_tail"
    | _ -> "superblock")

(* Representative superblock shapes so [rule_stats] (which filters by
   [all_rules] names) reports the two new buckets. *)
let all_rules =
  [
    R_fbinop_fbinop; R_ibinop_ibinop; R_icmp_select; R_fcmp_select;
    R_cast_binop; R_gep_load; R_gep_store; R_load_binop; R_binop_store;
    R_load_binop_store;
    R_superblock [ M_fbinop; M_fbinop; M_fbinop ];
    R_superblock [ M_fbinop; M_reduce ];
  ]

type chain = { c_block : string; c_start : int; c_len : int; c_rule : rule }

(* The execution body of a block as the threaded backend sees it: phis
   run at block entry and the terminator last, whatever their physical
   position, so chain adjacency is adjacency in this filtered list. *)
let is_body_instr (i : Instr.t) =
  match i.Instr.op with
  | Instr.Phi _ | Instr.Br _ | Instr.Condbr _ | Instr.Ret _
  | Instr.Unreachable ->
    false
  | _ -> true

let uses_reg_op (o : Instr.operand) r =
  match o with Instr.Reg (r', _) -> r' = r | Instr.Imm _ -> false

(* [p]'s result is consumed by [c] and nothing else: exactly one textual
   use in the whole function, and it is (physically) instruction [c].
   One entry per occurrence in [Defuse.uses_of], so [op %r %r] yields
   two sites and is rejected here. *)
let links du (p : Instr.t) (c : Instr.t) =
  Instr.defines p
  &&
  match Defuse.uses_of du p.Instr.id with
  | [ site ] -> site.Defuse.u_instr == c
  | _ -> false

(* Kind of [i] as a potential chain member ([None] = never fusible:
   allocas, lane shuffles, non-reduce calls, …). *)
let member_of (i : Instr.t) : member option =
  match i.Instr.op with
  | Instr.Ibinop _ -> Some M_ibinop
  | Instr.Fbinop _ -> Some M_fbinop
  | Instr.Icmp _ -> Some M_icmp
  | Instr.Fcmp _ -> Some M_fcmp
  | Instr.Select _ -> Some M_select
  | Instr.Cast _ -> Some M_cast
  | Instr.Gep _ -> Some M_gep
  | Instr.Load _ -> Some M_load
  | Instr.Store _ -> Some M_store
  | Instr.Call (n, [ _ ]) -> (
    match Intrinsics.lookup n with
    | Some { Intrinsics.kind = Intrinsics.Reduce _; _ } -> Some M_reduce
    | _ -> None)
  | _ -> None

(* May the linked pair (p -> c) be consecutive chain members? [links]
   already guarantees p's result is read exactly once, by c; this
   checks the structural shapes the emitter supports:
   - a gep's consumer must be the memory access it addresses;
   - a load's address must come from a gep (an address arriving in a
     plain register is read straight from the register file — nothing
     to fuse);
   - a store is linked through its *value* operand (through its pointer
     only from a gep), and terminates the chain (void result);
   - a reduce intrinsic consumes the full vector and terminates the
     chain. *)
let link_shape_ok (p : Instr.t) (c : Instr.t) =
  let r = p.Instr.id in
  match (p.Instr.op, c.Instr.op) with
  | (Instr.Store _ | Instr.Call _), _ -> false (* void / chain-final *)
  | Instr.Gep _, Instr.Load addr -> uses_reg_op addr r
  | Instr.Gep _, Instr.Store (v, ptr) ->
    uses_reg_op ptr r && not (uses_reg_op v r)
  | Instr.Gep _, _ -> false
  | _, Instr.Load _ -> false
  | _, Instr.Store (v, _) -> uses_reg_op v r
  | _, _ -> true

(* Classify an adjacent, def-use-linked (producer, consumer) pair
   against the PR 7 peephole rules (kept as named rules: each has a
   specialized two-member kernel in the emitter and its own
   differential property). *)
let pair_rule (p : Instr.t) (c : Instr.t) : rule option =
  let r = p.Instr.id in
  match (p.Instr.op, c.Instr.op) with
  | Instr.Fbinop _, Instr.Fbinop _ -> Some R_fbinop_fbinop
  | Instr.Ibinop _, Instr.Ibinop _ -> Some R_ibinop_ibinop
  | Instr.Icmp _, Instr.Select (cond, _, _) when uses_reg_op cond r ->
    Some R_icmp_select
  | Instr.Fcmp _, Instr.Select (cond, _, _) when uses_reg_op cond r ->
    Some R_fcmp_select
  | Instr.Cast _, (Instr.Ibinop _ | Instr.Fbinop _) -> Some R_cast_binop
  | Instr.Gep _, Instr.Load addr when uses_reg_op addr r -> Some R_gep_load
  | Instr.Gep _, Instr.Store (_, ptr) when uses_reg_op ptr r ->
    Some R_gep_store
  | Instr.Load _, (Instr.Ibinop _ | Instr.Fbinop _) -> Some R_load_binop
  | (Instr.Ibinop _ | Instr.Fbinop _), Instr.Store (v, _) when uses_reg_op v r
    ->
    Some R_binop_store
  | _ -> None

let member_kinds (body : Instr.t array) s len =
  List.init len (fun k -> Option.get (member_of body.(s + k)))

let find (f : Func.t) : chain list =
  let du = Defuse.build f in
  let out = ref [] in
  List.iter
    (fun (b : Block.t) ->
      let body = Array.of_list (List.filter is_body_instr b.Block.instrs) in
      let n = Array.length body in
      let extendable j =
        j + 1 < n
        &&
        let p = body.(j) and c = body.(j + 1) in
        member_of p <> None && member_of c <> None
        && links du p c && link_shape_ok p c
      in
      let j = ref 0 in
      while !j < n - 1 do
        (* Grow the maximal linked run starting at !j. *)
        let k = ref !j in
        while extendable !k do
          incr k
        done;
        let len = !k - !j + 1 in
        if len < 2 then incr j
        else begin
          let s = !j in
          let rule =
            match (len, body.(s).Instr.op, body.(s + len - 1).Instr.op) with
            | 2, _, _ -> (
              match pair_rule body.(s) body.(s + 1) with
              | Some r -> Some r
              | None -> Some (R_superblock (member_kinds body s 2)))
            | 3, Instr.Load _, Instr.Store _ -> (
              (* the PR 7 three-member peephole, position-checked *)
              match body.(s + 1).Instr.op with
              | Instr.Ibinop _ | Instr.Fbinop _ ->
                Some R_load_binop_store
              | _ -> Some (R_superblock (member_kinds body s 3)))
            | _ -> Some (R_superblock (member_kinds body s len))
          in
          (match rule with
          | Some c_rule ->
            out := { c_block = b.Block.label; c_start = s; c_len = len; c_rule } :: !out
          | None -> ());
          j := !j + len
        end
      done)
    f.Func.blocks;
  List.rev !out
