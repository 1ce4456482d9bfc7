(** Fusible straight-line chains inside basic blocks.

    A chain is a run of adjacent non-phi, non-terminator instructions
    whose intermediate results are each used exactly once, by the next
    member of the chain. The interpreter's threading stage may lower an
    annotated chain into one fused kernel; because every intermediate is
    single-use, skipping its register-buffer write (fused kernels stage
    intermediates through a private scratch array) is unobservable.

    Legality enforced here (the emitter re-checks shapes defensively):
    - members are physically adjacent in the block's non-phi,
      non-terminator body (the execution order of the threaded backend);
    - every intermediate register has exactly one textual use in the
      whole function, and that use is the next chain member (so
      [a * a] never links — it reads the register twice);
    - no allocas, lane-shuffling instructions or calls — except a
      trailing cross-lane [reduce_*] intrinsic, the fused reduction
      tail — participate, so a chain can neither swallow a
      fault-injection site nor reorder an allocation. *)

(** Member kinds of an [R_superblock] chain, first to last. *)
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

(** Which rule a chain matched; names key the per-rule differential
    equivalence tests and the pipeline statistics. The ten fixed-shape
    peephole rules from PR 7 are kept for two/three-member chains (each
    has a specialized kernel); [R_superblock] covers every longer — or
    otherwise unclassified — linked run, including fused reduction
    tails (reported as ["reduce_tail"]). *)
type rule =
  | R_fbinop_fbinop  (** fmul→fadd style float chains *)
  | R_ibinop_ibinop  (** integer op chains (consumer may trap) *)
  | R_icmp_select
  | R_fcmp_select
  | R_cast_binop
  | R_gep_load
  | R_gep_store
  | R_load_binop
  | R_binop_store
  | R_load_binop_store  (** the three-member load→op→store chain *)
  | R_superblock of member list
      (** arbitrary-length linked run; trailing [M_reduce] = fused
          reduction tail *)

val rule_name : rule -> string

val all_rules : rule list
(** One representative per statistics bucket (the superblock entries
    are representatives — member lists vary per chain). *)

val member_of : Vir.Instr.t -> member option
(** [i]'s kind as a potential chain member; [None] = never fusible. *)

type chain = {
  c_block : string;  (** block label *)
  c_start : int;  (** index into the non-phi, non-terminator body *)
  c_len : int;  (** >= 2, arbitrary *)
  c_rule : rule;
}

(** Greedy left-to-right scan of every block: at each position the
    maximal linked run is taken (two/three-member runs classify as the
    PR 7 peephole rules, longer runs and reduction tails as
    [R_superblock]); chain members never overlap. *)
val find : Vir.Func.t -> chain list
