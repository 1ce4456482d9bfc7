(* The correctness check: a run's per-experiment trace records and
   per-cell results against the paper-literal Legacy executor's on the
   same cells and seed. *)

open Vulfi

(* A trace split by cell: each cell's experiment records, in order,
   followed by its summary record. The header line is dropped. *)
let cells_of_trace (trace : string) : (string array * string) list =
  let is_summary l = String.starts_with ~prefix:"{\"type\":\"summary\"" l in
  let is_header l = String.starts_with ~prefix:"{\"type\":\"header\"" l in
  let cells = ref [] and exps = ref [] in
  List.iter
    (fun l ->
      if l = "" || is_header l then ()
      else if is_summary l then begin
        cells := (Array.of_list (List.rev !exps), l) :: !cells;
        exps := []
      end
      else exps := l :: !exps)
    (String.split_on_char '\n' trace);
  List.rev !cells

(* Experiments of [got] that do not match [oracle]: an experiment
   record that differs counts once; a cell whose result or summary
   record differs, or whose record count differs, counts all of its
   experiments. Results compare with [compare] so that non-finite
   margins compare equal to themselves. *)
let failed ~(oracle : Campaign.result list * string)
    ~(got : Campaign.result list * string) : int =
  let o_res, o_tr = oracle and g_res, g_tr = got in
  let o_cells = cells_of_trace o_tr and g_cells = cells_of_trace g_tr in
  let n_of (r : Campaign.result) = r.Campaign.c_totals.Campaign.n_experiments in
  if
    List.length o_res <> List.length g_res
    || List.length o_cells <> List.length o_res
    || List.length g_cells <> List.length g_res
  then Workloads.experiments g_res
  else
    List.fold_left2
      (fun acc (o_r, (o_exps, o_sum)) (g_r, (g_exps, g_sum)) ->
        let n = max (n_of o_r) (n_of g_r) in
        if
          compare o_r g_r <> 0
          || o_sum <> g_sum
          || Array.length o_exps <> Array.length g_exps
        then acc + n
        else begin
          let bad = ref 0 in
          Array.iteri (fun i l -> if l <> g_exps.(i) then incr bad) o_exps;
          acc + !bad
        end)
      0
      (List.combine o_res o_cells)
      (List.combine g_res g_cells)

(* The Legacy executor over all cells of [wl], fanned out across one
   domain per core; its results and trace are identical to sequential
   runs (the campaign library's seed-schedule invariant). *)
let run (wl : Workloads.t) =
  Workloads.run ~executor:Campaign.Legacy
    { wl with Workloads.jobs = Some (Workloads.default_jobs ()) }
