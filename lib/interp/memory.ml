(** Bounds-checked flat memory.

    Each allocation lives at a distinct base address with large guard
    gaps between allocations, so a bit flip in an address register most
    often lands outside every allocation and traps — reproducing the
    paper's observation that address-site faults predominantly crash.
    Flips of low-order bits can stay inside the allocation and silently
    corrupt data instead, which is equally faithful. *)

type region = {
  base : int64;
  size : int;        (** bytes *)
  data : Bytes.t;
  rname : string;    (** for debugging *)
  mutable dlo : int;
  mutable dhi : int;
      (** dirty span [dlo, dhi): bytes written since the last
          snapshot/restore point (empty when [dlo >= dhi]). Every store
          path widens it, so [restore] only copies back what a run
          actually touched. *)
}

(* Sentinel for "no region": zero-sized, so [in_region] is false for
   every address and the lookup cache can be a plain (never-[option])
   field — a cache miss then neither allocates a [Some] nor follows an
   extra indirection on the hot path. *)
let no_region =
  { base = -1L; size = 0; data = Bytes.empty; rname = "<none>";
    dlo = max_int; dhi = 0 }

type t = {
  mutable regions : region list;  (** most recent first *)
  mutable next_base : int64;
  mutable last : region;
      (** one-entry lookup cache ([no_region] when empty): consecutive
          accesses overwhelmingly hit the same region. Purely an
          accelerator — hit or miss, the lookup result is unchanged. *)
  mutable cur_gen : int;
      (** generation of the snapshot the dirty spans are relative to *)
  mutable next_gen : int;  (** monotonic snapshot-id source *)
}

(* Bases start high and advance by the allocation size rounded up to a
   page plus a guard page, mimicking a sparse address space. *)
let create () =
  { regions = []; next_base = 0x1000_0000L; last = no_region;
    cur_gen = 0; next_gen = 0 }

let page = 4096

let round_up n k = (n + k - 1) / k * k

let alloc m ~name ~bytes =
  if bytes < 0 then invalid_arg "Memory.alloc: negative size";
  let size = max bytes 1 in
  let base = m.next_base in
  let region =
    { base; size; data = Bytes.make size '\000'; rname = name;
      dlo = max_int; dhi = 0 }
  in
  m.regions <- region :: m.regions;
  m.next_base <-
    Int64.add base (Int64.of_int (round_up size page + page));
  base

(* Widen a region's dirty span over [off, off + bytes). On the store
   hot path this is two compares and at most two int stores. *)
let[@inline] touch r off bytes =
  if off < r.dlo then r.dlo <- off;
  let e = off + bytes in
  if e > r.dhi then r.dhi <- e

(* ------------------------------------------------------------------ *)
(* Checkpointing. A snapshot captures the allocation state (region
   list, bump pointer) plus a full copy of every region's bytes; the
   copy is paid once per snapshot. Restoring the *current* snapshot
   copies back only each region's dirty span — cost proportional to the
   bytes written since the snapshot — and drops regions allocated after
   it (so in-run [alloca]s replay at identical addresses). Restoring an
   older snapshot falls back to a full copy, because the spans are
   relative to the latest snapshot only. *)

type snapshot = {
  snap_gen : int;
  snap_next_base : int64;
  snap_regions : region list;
  snap_saved : (region * Bytes.t) array;
}

let snapshot m =
  let saved =
    Array.of_list
      (List.map
         (fun r ->
           r.dlo <- max_int;
           r.dhi <- 0;
           (r, Bytes.copy r.data))
         m.regions)
  in
  m.next_gen <- m.next_gen + 1;
  m.cur_gen <- m.next_gen;
  {
    snap_gen = m.cur_gen;
    snap_next_base = m.next_base;
    snap_regions = m.regions;
    snap_saved = saved;
  }

let restore m snap =
  if snap.snap_gen = m.cur_gen then
    (* Latest snapshot: the dirty spans say exactly which bytes differ
       from the saved image. *)
    Array.iter
      (fun (r, saved) ->
        if r.dlo < r.dhi then begin
          let lo = r.dlo and hi = min r.dhi r.size in
          Bytes.blit saved lo r.data lo (hi - lo);
          r.dlo <- max_int;
          r.dhi <- 0
        end)
      snap.snap_saved
  else begin
    (* Stale snapshot: spans track a different baseline; copy whole
       regions and make this snapshot the span baseline. *)
    Array.iter
      (fun (r, saved) ->
        Bytes.blit saved 0 r.data 0 r.size;
        r.dlo <- max_int;
        r.dhi <- 0)
      snap.snap_saved;
    m.cur_gen <- snap.snap_gen
  end;
  m.regions <- snap.snap_regions;
  m.next_base <- snap.snap_next_base;
  m.last <- no_region

(* ------------------------------------------------------------------ *)
(* Dirty-span bookkeeping for convergence checks. A [spans] value is an
   accumulated per-region convex hull of dirty bytes, keyed by physical
   region identity; [diff_spans] folds the live spans (writes since the
   last snapshot/restore event) into an accumulator, and [equal_since]
   compares the current memory against a snapshot restricted to the
   union of the live spans and an accumulated hull — every byte outside
   that union is untouched since the snapshot on both sides, so the
   restricted comparison is exact (see DESIGN.md, convergence
   soundness). *)

type spans = (region * int * int) list

let no_spans : spans = []

let rec merge_span r lo hi = function
  | [] -> [ (r, lo, hi) ]
  | (r', lo', hi') :: rest when r' == r ->
    (r, min lo lo', max hi hi') :: rest
  | e :: rest -> e :: merge_span r lo hi rest

let diff_spans m acc =
  List.fold_left
    (fun acc r ->
      if r.dlo < r.dhi then merge_span r r.dlo (min r.dhi r.size) acc
      else acc)
    acc m.regions

(* Byte-range equality in 8-byte strides with a bytewise tail. *)
let bytes_equal_range a b lo hi =
  let i = ref lo in
  let ok = ref true in
  while !ok && !i + 8 <= hi do
    if Bytes.get_int64_ne a !i <> Bytes.get_int64_ne b !i then ok := false
    else i := !i + 8
  done;
  while !ok && !i < hi do
    if Bytes.unsafe_get a !i <> Bytes.unsafe_get b !i then ok := false
    else incr i
  done;
  !ok

(* Hull of region [r]'s entry in [since] and its live dirty span. *)
let[@inline] hull_for r (since : spans) =
  let rec find = function
    | [] -> (max_int, 0)
    | (r', lo, hi) :: rest -> if r' == r then (lo, hi) else find rest
  in
  let slo, shi = find since in
  let llo = r.dlo and lhi = min r.dhi r.size in
  (min slo llo, max shi lhi)

let equal_since m snap ~since =
  (* Any divergence in the allocation state (a region allocated after
     the snapshot that is still live, or a different bump pointer) is
     conservatively "not equal" — sound, and free to test. *)
  m.regions == snap.snap_regions
  && m.next_base = snap.snap_next_base
  && Array.for_all
       (fun (r, saved) ->
         let lo, hi = hull_for r since in
         lo >= hi || bytes_equal_range r.data saved lo (min hi r.size))
       snap.snap_saved

let[@inline] in_region r addr =
  addr >= r.base && Int64.sub addr r.base < Int64.of_int r.size

let rec region_list addr = function
  | [] -> no_region
  | r :: rest -> if in_region r addr then r else region_list addr rest

(* Region lookup returning [no_region] on miss. The cache-hit test is
   forced inline into every access closure, and neither hit nor miss
   allocates (the classic-compiler alternative — an [option] — costs a
   [Some] per cache refill and boxes on every return). *)
let[@inline] find_region m addr : region =
  let l = m.last in
  if in_region l addr then l
  else begin
    let r = region_list addr m.regions in
    if r != no_region then m.last <- r;
    r
  end

let[@inline] reg_off r addr = Int64.to_int (Int64.sub addr r.base)

(* The whole range [addr, addr + bytes) inside one region, which is
   returned (the caller recomputes the offset with [reg_off] — two
   inlined int ops — instead of receiving an allocated tuple), or
   [no_region]: the caller falls back to the per-lane path, which
   reproduces the exact per-lane trap address. *)
let[@inline] range_region m addr ~bytes : region =
  let r = find_region m addr in
  if r != no_region && reg_off r addr + bytes <= r.size then r else no_region

(* In-bounds region for a [bytes]-wide access at [addr], or trap. *)
let[@inline] region_at m addr ~bytes : region =
  let r = range_region m addr ~bytes in
  if r == no_region then Trap.raise_ (Trap.Out_of_bounds addr);
  r

(* ------------------------------------------------------------------ *)
(* The lane codec: the only code that encodes or decodes a scalar
   kind's bytes. Every load and store path below reads and writes lanes
   through these four functions against an already-resolved region, so
   a scalar kind's memory encoding lives in exactly one reader and one
   writer. Forced inline so the lane comes back (or goes in) unboxed.
   i1 occupies one byte (any nonzero byte reads as 1); narrow integers
   are sign-extended when read and truncated when written. *)

let[@inline] read_lane_int (s : Vir.Vtype.scalar) data off : int64 =
  match s with
  | I1 -> if Bytes.get data off = '\000' then 0L else 1L
  | I8 -> Int64.of_int (Bytes.get_int8 data off)
  | I32 -> Int64.of_int32 (Bytes.get_int32_le data off)
  | I64 | Ptr -> Bytes.get_int64_le data off
  | F32 | F64 -> assert false

let[@inline] read_lane_float (s : Vir.Vtype.scalar) data off : float =
  match s with
  | F32 -> Int32.float_of_bits (Bytes.get_int32_le data off)
  | F64 -> Int64.float_of_bits (Bytes.get_int64_le data off)
  | I1 | I8 | I32 | I64 | Ptr -> assert false

let[@inline] write_lane_int (s : Vir.Vtype.scalar) data off (x : int64) =
  match s with
  | I1 -> Bytes.set data off (if x = 0L then '\000' else '\001')
  | I8 -> Bytes.set_int8 data off (Int64.to_int x)
  | I32 -> Bytes.set_int32_le data off (Int64.to_int32 x)
  | I64 | Ptr -> Bytes.set_int64_le data off x
  | F32 | F64 -> assert false

let[@inline] write_lane_float (s : Vir.Vtype.scalar) data off (x : float) =
  match s with
  | F32 -> Bytes.set_int32_le data off (Int32.bits_of_float x)
  | F64 -> Bytes.set_int64_le data off (Int64.bits_of_float x)
  | I1 | I8 | I32 | I64 | Ptr -> assert false

(* Single-lane accesses with their own bounds check: a lane that is not
   wholly inside one region traps at its own address. These are the
   per-lane fallback of every vector path, which is how a span that
   leaves its region reports the first out-of-bounds (enabled) lane. *)

let[@inline] load_scalar_int m s addr =
  let r = region_at m addr ~bytes:(Vir.Vtype.scalar_bytes s) in
  read_lane_int s r.data (reg_off r addr)

let[@inline] load_scalar_float m s addr =
  let r = region_at m addr ~bytes:(Vir.Vtype.scalar_bytes s) in
  read_lane_float s r.data (reg_off r addr)

let store_scalar_int m s addr x =
  let sb = Vir.Vtype.scalar_bytes s in
  let r = region_at m addr ~bytes:sb in
  let off = reg_off r addr in
  touch r off sb;
  write_lane_int s r.data off x

let store_scalar_float m s addr x =
  let sb = Vir.Vtype.scalar_bytes s in
  let r = region_at m addr ~bytes:sb in
  let off = reg_off r addr in
  touch r off sb;
  write_lane_float s r.data off x

let[@inline] lane_addr addr sb i = Int64.add addr (Int64.of_int (i * sb))

(* Sentinel for "no mask" (every lane enabled), compared physically like
   [no_region], so the unmasked paths neither allocate nor test lanes. *)
let no_mask = Vvalue.I (Vir.Vtype.I1, Ilanes.make 0 0L)

let[@inline] lane_on mask i = mask == no_mask || Vvalue.is_true_lane mask i

(* Fill [out]'s lanes from the span at [addr]: enabled lanes decode,
   disabled lanes read as zero without touching memory (AVX maskload
   semantics — a masked-off lane may point out of bounds without
   trapping). A span inside one region (the common foreach-tail case) is
   resolved once and read at integer offsets; any other span reads every
   enabled lane through its own bounds check, so the trap names the
   first out-of-bounds enabled lane. Lanes are written as they load. *)
let load_lanes m s addr ~mask (out : Vvalue.t) =
  let sb = Vir.Vtype.scalar_bytes s in
  let n = Vvalue.lanes out in
  let r = range_region m addr ~bytes:(n * sb) in
  let off = reg_off r addr in
  match out with
  | Vvalue.F (_, o) when Vir.Vtype.is_float_scalar s ->
    for i = 0 to n - 1 do
      Array.unsafe_set o i
        (if not (lane_on mask i) then 0.0
         else if r != no_region then read_lane_float s r.data (off + (i * sb))
         else load_scalar_float m s (lane_addr addr sb i))
    done
  | Vvalue.I (_, o) when not (Vir.Vtype.is_float_scalar s) ->
    for i = 0 to n - 1 do
      Ilanes.unsafe_set o i
        (if not (lane_on mask i) then 0L
         else if r != no_region then read_lane_int s r.data (off + (i * sb))
         else load_scalar_int m s (lane_addr addr sb i))
    done
  | _ -> invalid_arg "Memory.masked_load_into: shape mismatch"

(* Pre-specialized destination-passing load for a statically known
   access type: the threading stage builds one per load site, so the
   per-access work is region lookup plus codec calls, with the type
   dispatch done once here. The loaded lanes go straight into the
   destination register's pinned buffer. The bounds check happens before
   the first write, and a span not inside one region loads lane by lane
   into a fresh value that is copied in only once every lane has loaded,
   so a trapping load leaves the destination untouched. A
   shape-mismatched destination — only reachable through a
   kind-confused extern result — raises. *)
let bad_into () = invalid_arg "Memory.loader_into: shape mismatch"

let loader_into (ty : Vir.Vtype.t) : t -> int64 -> Vvalue.t -> unit =
  match ty with
  | Vir.Vtype.Void -> invalid_arg "Memory.load: void"
  | Vir.Vtype.Scalar s when Vir.Vtype.is_float_scalar s ->
    fun m addr out ->
      let x = load_scalar_float m s addr in
      (match out with Vvalue.F (_, o) -> o.(0) <- x | _ -> bad_into ())
  | Vir.Vtype.Scalar s ->
    fun m addr out ->
      let x = load_scalar_int m s addr in
      (match out with
      | Vvalue.I (_, o) -> Ilanes.unsafe_set o 0 x
      | _ -> bad_into ())
  | Vir.Vtype.Vector (n, s) -> (
    let sb = Vir.Vtype.scalar_bytes s in
    let bytes = n * sb in
    let straddle m addr out =
      let v = Vvalue.zero_of_ty ty in
      load_lanes m s addr ~mask:no_mask v;
      Vvalue.copy_into ~dst:out v
    in
    match s with
    | I64 | Ptr ->
      fun m addr out ->
        let r = range_region m addr ~bytes in
        (match out with
        | Vvalue.I (_, o) when r != no_region ->
          (* lane buffers are 8-byte little-endian words, same encoding
             as memory: a vector of I64/Ptr lanes is one byte blit *)
          Bytes.blit r.data (reg_off r addr) o 0 bytes
        | _ when r == no_region -> straddle m addr out
        | _ -> bad_into ())
    | F32 | F64 ->
      fun m addr out ->
        let r = range_region m addr ~bytes in
        let off = reg_off r addr in
        (match out with
        | Vvalue.F (_, o) when r != no_region ->
          for i = 0 to n - 1 do
            o.(i) <- read_lane_float s r.data (off + (i * sb))
          done
        | _ when r == no_region -> straddle m addr out
        | _ -> bad_into ())
    | I1 | I8 | I32 ->
      fun m addr out ->
        let r = range_region m addr ~bytes in
        let off = reg_off r addr in
        (match out with
        | Vvalue.I (_, o) when r != no_region ->
          for i = 0 to n - 1 do
            Ilanes.unsafe_set o i (read_lane_int s r.data (off + (i * sb)))
          done
        | _ when r == no_region -> straddle m addr out
        | _ -> bad_into ()))

(* Load a (possibly vector) value of type [ty] from contiguous memory. *)
let load m (ty : Vir.Vtype.t) addr : Vvalue.t =
  let ld = loader_into ty in
  let v = Vvalue.zero_of_ty ty in
  ld m addr v;
  v

(* Destination-passing masked load: every lane of the destination is
   written (disabled lanes as zero, per AVX maskload), so no stale lane
   survives in the pinned buffer. *)
let masked_load_into m (ty : Vir.Vtype.t) addr ~mask (out : Vvalue.t) =
  match ty with
  | Vir.Vtype.Vector (_, s) -> load_lanes m s addr ~mask out
  | Vir.Vtype.Void | Vir.Vtype.Scalar _ ->
    invalid_arg "Memory.masked_load: scalar type"

let masked_load m (ty : Vir.Vtype.t) addr ~mask : Vvalue.t =
  let v = Vvalue.zero_of_ty ty in
  masked_load_into m ty addr ~mask v;
  v

(* Store a value to contiguous memory; [mask] (if given) disables lanes,
   matching AVX maskstore semantics. A span inside one region is
   resolved once and every enabled lane is written at its integer
   offset, dirtying exactly the lane it writes — all of the span when
   unmasked — so restore cost follows what was written. Any other span
   stores each enabled lane through its own bounds check: the lanes
   before the first out-of-bounds enabled lane land, and the trap names
   that lane. *)
let store ?(mask = no_mask) m (v : Vvalue.t) addr =
  let s = Vvalue.scalar_kind v in
  let sb = Vir.Vtype.scalar_bytes s in
  let n = Vvalue.lanes v in
  let r = range_region m addr ~bytes:(n * sb) in
  let off = reg_off r addr in
  match v with
  | Vvalue.I (_, l) ->
    for i = 0 to n - 1 do
      if lane_on mask i then
        if r != no_region then begin
          touch r (off + (i * sb)) sb;
          write_lane_int s r.data (off + (i * sb)) (Ilanes.unsafe_get l i)
        end
        else store_scalar_int m s (lane_addr addr sb i) (Ilanes.unsafe_get l i)
    done
  | Vvalue.F (_, l) ->
    for i = 0 to n - 1 do
      if lane_on mask i then
        if r != no_region then begin
          touch r (off + (i * sb)) sb;
          write_lane_float s r.data (off + (i * sb)) (Array.unsafe_get l i)
        end
        else store_scalar_float m s (lane_addr addr sb i) (Array.unsafe_get l i)
    done

(* Pre-specialized unmasked store for a statically known operand type
   (the VIR verifier guarantees the stored value has that type; masked
   stores go through [store ~mask]): a span inside one region is dirtied
   once and written lane by lane; a span leaving its region (or an
   operand of the wrong lane count) goes through [store]. Identical
   semantics to [store]. *)
let storer (ty : Vir.Vtype.t) : t -> Vvalue.t -> int64 -> unit =
  match ty with
  | Vir.Vtype.Void -> invalid_arg "Memory.storer: void"
  | Vir.Vtype.Scalar s | Vir.Vtype.Vector (_, s) ->
    let n = Vir.Vtype.lanes ty in
    let sb = Vir.Vtype.scalar_bytes s in
    let bytes = n * sb in
    fun m v addr ->
      let r = range_region m addr ~bytes in
      let off = reg_off r addr in
      (match v with
      | Vvalue.I (_, l) when r != no_region && Ilanes.length l = n ->
        touch r off bytes;
        for i = 0 to n - 1 do
          write_lane_int s r.data (off + (i * sb)) (Ilanes.unsafe_get l i)
        done
      | Vvalue.F (_, l) when r != no_region && Array.length l = n ->
        touch r off bytes;
        for i = 0 to n - 1 do
          write_lane_float s r.data (off + (i * sb)) (Array.unsafe_get l i)
        done
      | _ -> store m v addr)

(* Typed bulk accessors used by the benchmark harness: vector accesses
   of the array's length, so the whole range is resolved once when in
   bounds and otherwise the per-lane path reproduces the per-element
   trap. [read_i32_array] decodes straight into its result: outputs are
   read after every experiment, and a lane buffer in between would
   double that allocation. *)

let write_i32_array m base (xs : int array) =
  store m
    (Vvalue.I
       (I32, Ilanes.init (Array.length xs) (fun i -> Int64.of_int xs.(i))))
    base

let read_i32_array m base n =
  let r = range_region m base ~bytes:(4 * n) in
  let off = reg_off r base in
  Array.init n (fun i ->
      Int64.to_int
        (if r != no_region then read_lane_int I32 r.data (off + (4 * i))
         else load_scalar_int m I32 (lane_addr base 4 i)))

let write_f32_array m base (xs : float array) = store m (Vvalue.F (F32, xs)) base

let read_f32_array m base n =
  match load m (Vir.Vtype.Vector (n, F32)) base with
  | Vvalue.F (_, a) -> a
  | Vvalue.I _ -> assert false
