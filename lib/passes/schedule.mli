(** The list-scheduling pass (see {!Analysis.Sched}): reorders pure
    instructions inside fence-delimited block regions so single-use
    chains become adjacent for the fusion pass. Returns the number of
    instructions moved. Campaign-default; disabled by [--no-schedule]
    (see {!Vulfi.Experiment.schedule_enabled}). *)

val run_func : Vir.Func.t -> int
val run_module : Vir.Vmodule.t -> int
