(** A fixed-size OCaml 5 domain worker pool.

    [create ~jobs] starts [jobs - 1] worker domains; the submitting
    thread is the remaining worker, so [map] uses exactly [jobs]
    domains of compute. The pool is reused across [map] calls, which
    keeps domain spawning off the per-batch path.

    [map] preserves order: result [i] is [f arr.(i)] regardless of
    which domain executed it. Work is distributed by an atomic cursor,
    so domains self-balance across items of uneven cost (campaign cells
    differ in cost by orders of magnitude). Exceptions raised by [f]
    are caught in the worker and re-raised (first one wins) in the
    submitting thread after the batch drains. *)

type job = {
  run : int -> unit;  (** [run i] executes item [i]; never raises *)
  n : int;
  next : int Atomic.t;       (** work cursor *)
  completed : int Atomic.t;  (** items fully executed *)
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;   (** signalled when a new batch is published *)
  finished : Condition.t;  (** signalled when a batch's last item ends *)
  mutable job : job option;
  mutable generation : int;  (** bumped once per published batch *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* Pull items until the batch cursor is exhausted. *)
let drain t job =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.n then continue_ := false
    else begin
      job.run i;
      if 1 + Atomic.fetch_and_add job.completed 1 = job.n then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end
    end
  done

let rec worker t last_gen =
  Mutex.lock t.mutex;
  let has_fresh_job () =
    t.generation <> last_gen && Option.is_some t.job
  in
  while (not t.stop) && not (has_fresh_job ()) do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let job = Option.get t.job in
    Mutex.unlock t.mutex;
    drain t job;
    worker t gen
  end

let create ~jobs =
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (max 1 jobs - 1)
      (fun _ -> Domain.spawn (fun () -> worker t 0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let error = Atomic.make None in
    let run i =
      match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt)))
    in
    let job = { run; n; next = Atomic.make 0; completed = Atomic.make 0 } in
    Mutex.lock t.mutex;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* the submitting thread is one of the workers *)
    drain t job;
    Mutex.lock t.mutex;
    while Atomic.get job.completed < n do
      Condition.wait t.finished t.mutex
    done;
    t.job <- None;
    Mutex.unlock t.mutex;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
