(** Detector overhead measurement (Fig 12's "Avg. Overhead" series) and
    detector-set plumbing for campaigns. *)

type measurement = {
  plain_instrs : int;  (** dynamic instructions without detectors *)
  detected_instrs : int;  (** with detectors *)
  detectors_inserted : int;
}

(** Relative overhead: (detected - plain) / plain. *)
val overhead_fraction : measurement -> float

(** Which detector passes to apply. *)
type detector_set = {
  with_foreach : bool;
  with_uniform : bool;
  placement : Foreach_invariants.placement;
  strengthen : bool;  (** add the exit-equality check (extension) *)
}

(** The paper's configuration: foreach invariants, exit-only. *)
val paper_detectors : detector_set

(** Everything: foreach invariants plus uniform-broadcast XOR checks. *)
val all_detectors : detector_set

(** Foreach invariants with the strengthened exit-equality check. *)
val strengthened_detectors : detector_set

(** Apply the selected passes to a module (in place); returns the
    number of insertion points. *)
val apply : detector_set -> Vir.Vmodule.t -> int

(** [transform set] as a module transform for
    {!Vulfi.Experiment.prepare}. *)
val transform : detector_set -> Vir.Vmodule.t -> Vir.Vmodule.t

(** Measure the dynamic-instruction overhead of [set] on one workload
    input. *)
val measure :
  ?set:detector_set ->
  Vulfi.Workload.t ->
  Vir.Target.t ->
  input:int ->
  measurement
