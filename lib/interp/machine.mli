(** The VIR virtual machine: executes a compiled module with
    bounds-checked memory, a dynamic-instruction budget (a fault-induced
    endless loop becomes an observable hang trap), and a pluggable
    extern mechanism through which the VULFI runtime and benchmark I/O
    are wired in. *)

type state

(** Default budget: 200M dynamic instructions. *)
val default_budget : int

(** Fresh machine over compiled code. [budget] bounds dynamic
    instructions (exceeding it raises {!Interp.Trap.Budget_exhausted});
    [max_depth] bounds the call stack. *)
val create : ?budget:int -> ?max_depth:int -> Compile.cmodule -> state

(** Re-arm an existing machine for another run: resets the fuel budget
    (to [budget] when given, else to the machine's current budget) and
    the dynamic and detection counters, while keeping the compiled code, memory,
    frame pool and extern registrations. Memory {e contents} are not
    touched — pair with {!Memory.restore} to roll those back.

    [spent] (default 0) pre-charges the new epoch: {!dyn_count}
    immediately after the reset reads [spent]. Pass the length of an
    already-executed prefix when re-arming the budget mid-run, so a
    mid-epoch [reset ~budget] cannot silently rebase the executed
    count to zero. *)
val reset : ?budget:int -> ?spent:int -> state -> unit

(** Register (or replace) a handler for calls to an undefined function.
    The handler returns [None] for void functions. *)
val register_extern :
  state -> string -> (state -> Vvalue.t list -> Vvalue.t option) -> unit

(** The machine's memory, for setting up inputs / reading outputs. *)
val memory : state -> Memory.t

(** Dynamic instructions executed so far. *)
val dyn_count : state -> int

(** Executed vector instructions (at least one vector operand or
    result) — the dynamic counterpart of the paper's Fig 10 census. *)
val dyn_vector_count : state -> int

(** Count one detector violation. Error-detector extern handlers call
    this instead of keeping host-side state, so the count is machine
    state: {!reset} zeroes it, checkpoints carry it and {!state_equal}
    compares it. *)
val record_detection : state -> unit

(** Detector violations recorded since the last {!reset}; a {!resume}
    restores the count its checkpoint captured. *)
val detections : state -> int

(** Lane evaluators, exposed for reuse by constant folding and the
    reference SPMD evaluator so semantics cannot drift. *)

val eval_ibinop_lane : Vir.Instr.ibinop -> Vir.Vtype.scalar -> int64 -> int64 -> int64
val eval_fbinop_lane : Vir.Instr.fbinop -> Vir.Vtype.scalar -> float -> float -> float
val eval_icmp_lane : Vir.Instr.icmp_pred -> Vir.Vtype.scalar -> int64 -> int64 -> int64
val eval_fcmp_lane : Vir.Instr.fcmp_pred -> float -> float -> int64
val eval_cast : Vir.Instr.cast_op -> Vir.Vtype.t -> Vvalue.t -> Vvalue.t

(** {1 Execution}

    A run is either fresh ({!run}) or resumed from a full-machine
    checkpoint ({!resume}), and either untracked — straight through the
    compiled closures — or tracked: given a [check], the machine walks
    one instruction at a time with a shadow call stack and offers every
    extern call to the check before it executes. Checks build the two
    uses of tracking: laying checkpoints ({!capture} at chosen sites)
    and convergence pruning ({!state_equal} against a golden
    checkpoint, raising to end the run). *)

(** An opaque full-machine checkpoint: memory image, live register
    frames, call-stack positions, dynamic counters and the detection
    count, captured at an
    extern-call boundary. It aliases the frame pool of the machine that
    captured it: resume it only on that machine. *)
type checkpoint

(** Dynamic instructions executed when the checkpoint was captured
    (the prefix length a resume skips). *)
val checkpoint_spent : checkpoint -> int

(** The shadow call stack at a check point (innermost activation
    first); opaque outside {!capture} and {!state_equal}. *)
type stack_view

(** Callback fired before each extern call of a tracked run executes,
    with the machine, the current shadow stack, the callee's extern
    slot and the argument values (register-buffer aliases — copy to
    retain). A check may end the run by raising. The return value says
    whether a future call could still matter: the first [false]
    detaches the run — tracking stops and the remaining suffix executes
    at full speed through the fused kernels, with no further [check]
    calls. Detaching is purely physical; the run's results are
    unchanged. *)
type check = state -> stack_view -> slot:int -> Vvalue.t list -> bool

(** The extern slot index a callee name was compiled to, or [None] if
    no call site references it. Checks compare these dense ints
    instead of names. *)
val extern_slot : state -> string -> int option

(** Run function [name] with the given arguments; returns a deep copy
    of its value ([None] for void). With [check] the run is tracked.
    @raise Trap.Trap on crash (bounds, division, budget, ...).
    @raise Invalid_argument if the argument count does not match the
      function's parameter count. *)
val run : ?check:check -> state -> string -> Vvalue.t list -> Vvalue.t option

(** Resume from a checkpoint captured by this machine: memory,
    counters and register frames roll back, the recorded call stack is
    re-entered, and execution continues from the checkpointed extern
    call. With [check] the resumed suffix is tracked. [budget] re-arms
    the fuel epoch as [reset ~budget] would; {!dyn_count} afterwards
    reads prefix + suffix, exactly what a fresh run to the same point
    would report. Returns a deep copy of the function result, like
    {!run}.
    @raise Trap.Trap on a crash in the resumed suffix. *)
val resume :
  ?check:check -> budget:int -> state -> checkpoint -> Vvalue.t option

(** [capture st stack] — the full machine state at the current tracked
    extern call, from inside a {!check}. The call itself has not run:
    resuming the checkpoint re-executes it. *)
val capture : state -> stack_view -> checkpoint

(** [state_equal st stack ck ~since] — exact equality of the running
    machine against checkpoint [ck] (captured by the same machine at
    the same dynamic site): dynamic and detection counters, call-stack
    positions, the
    live registers of each interrupted activation, and memory compared
    only over the union of [since] (the golden run's accumulated dirty
    spans up to [ck]) and this run's own live dirty spans. A [true]
    answer implies the continuation from here is bit-identical to the
    golden run's continuation from [ck]. *)
val state_equal :
  state -> stack_view -> checkpoint -> since:Memory.spans -> bool
