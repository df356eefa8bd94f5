(** The metric registry and its per-domain storage.

    Every registered metric owns a fixed, line-aligned run of words in
    one {!Plane} slot per domain.  A counter owns a full line: one word
    per transaction class (see {!set_class}), summed when read, so the
    wasted-work ledger can read a family's commits and aborts per class
    from the very words [tcm_*_total] reports.  A histogram owns its
    buckets plus a sum word.  A domain writes only its own slot, so the
    record path is a plain int store: no CAS, no allocation, no
    cache-line ping-pong.  Slots are acquired on a domain's first
    record and released (folded into the registry's retired total) when
    it exits.  {!snapshot} merges under the plane's mutex, which makes
    successive snapshots monotone; one ordered after the counting
    domains' work — joined domains, as in the harness — is exact.

    Disabled (the default) costs one [Atomic.get] and a branch per
    record call, exactly like [Tcm_trace.Sink]'s emitters; call
    {!enable} to start counting.  Registration (by [Counter.create] /
    [Histogram.create]) is the cold path: it takes a mutex and
    deduplicates on (name, label set), so instrumented components may
    re-create their handles freely. *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let[@inline] enabled () = Atomic.get enabled_flag

(* [K_cells] is a counter line that stays out of snapshots: storage for
   a read-side view (the ledger) rather than an exported series. *)
type kind = K_counter | K_cells | K_histogram of int  (** payload: bucket count *)

type def = {
  name : string;
  help : string;
  labels : (string * string) list;  (** Canonical (sorted). *)
  kind : kind;
  offset : int;  (** Word offset into each domain's slot; line-aligned. *)
  words : int;  (** Payload words (counter: a line; histogram: buckets + 1). *)
}

(* Registration state.  [defs] is newest-first.  Mutated only under
   [mu]. *)
let mu = Mutex.create ()
let defs : def list ref = ref []
let by_key : (string, def) Hashtbl.t = Hashtbl.create 64
let total_words = ref 0

let key_of name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let register ~name ~help ~labels kind payload_words =
  Mutex.lock mu;
  let labels = Snapshot.canon_labels labels in
  let k = key_of name labels in
  let d =
    match Hashtbl.find_opt by_key k with
    | Some d ->
        if d.kind <> kind then begin
          Mutex.unlock mu;
          invalid_arg
            (Printf.sprintf "Tcm_metrics: %s re-registered with a different kind" name)
        end;
        d
    | None ->
        let offset = !total_words in
        let lines = (payload_words + Plane.line_words - 1) / Plane.line_words in
        total_words := !total_words + (lines * Plane.line_words);
        let d = { name; help; labels; kind; offset; words = payload_words } in
        Hashtbl.add by_key k d;
        defs := d :: !defs;
        d
  in
  Mutex.unlock mu;
  d

(* ------------------------------------------------------------------ *)
(* Per-domain storage                                                  *)
(* ------------------------------------------------------------------ *)

let group = Plane.group ()

(* A domain's slot and its current transaction class. *)
type local = { mutable slot : Plane.slot; mutable cls : int }

(* Slots come in powers of two, so a domain's slot grows a logarithmic
   number of times as metrics register, and the slots it outgrows (the
   plane keeps them for reuse) sum to less than its current one. *)
let slot_words n =
  let rec up w = if w >= n then w else up (2 * w) in
  up Plane.line_words

let dls =
  Domain.DLS.new_key (fun () ->
      { slot = Plane.acquire ~group (slot_words !total_words); cls = 0 })

(* The domain's slot, grown if a metric was registered after it was
   acquired (rare: instruments register at component creation). *)
let[@inline never] grow (l : local) (d : def) =
  l.slot <- Plane.grow l.slot (slot_words (max !total_words (d.offset + d.words)));
  l.slot

let[@inline] slot_for (l : local) (d : def) =
  let s = l.slot in
  if d.offset + d.words <= s.Plane.words then s else grow l d

let set_class c = (Domain.DLS.get dls).cls <- (if c < 0 || c >= Plane.line_words then 0 else c)
let reset () = Plane.clear group

(* ------------------------------------------------------------------ *)
(* Metric handles                                                      *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = def

  let create ?(help = "") ?(labels = []) name =
    register ~name ~help ~labels K_counter Plane.line_words

  let cells ?(labels = []) name = register ~name ~help:"" ~labels K_cells Plane.line_words

  let[@inline] add c n =
    if Atomic.get enabled_flag then begin
      let l = Domain.DLS.get dls in
      let s = slot_for l c in
      let i = s.Plane.base + c.offset + l.cls in
      s.Plane.arr.(i) <- s.Plane.arr.(i) + n
    end

  let[@inline] incr c = add c 1
end

module Histogram = struct
  type t = def

  (* 24 log2 buckets span [0, 2^23): ~8.4 s in microseconds, and any
     plausible tick or read-set count; the last bucket absorbs the
     rest. *)
  let default_buckets = 24

  let create ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
    if buckets < 2 then invalid_arg "Histogram.create: need at least 2 buckets";
    register ~name ~help ~labels (K_histogram buckets) (buckets + 1)

  let[@inline] observe h v =
    if Atomic.get enabled_flag then begin
      let s = slot_for (Domain.DLS.get dls) h in
      let a = s.Plane.arr and o = s.Plane.base + h.offset in
      let b = h.words - 1 in
      let i = Buckets.index ~buckets:b v in
      a.(o + i) <- a.(o + i) + 1;
      a.(o + b) <- a.(o + b) + if v > 0 then v else 0
    end
end

(* ------------------------------------------------------------------ *)
(* Read side                                                           *)
(* ------------------------------------------------------------------ *)

type totals = int array

let totals () = Plane.totals group
let word (t : totals) i = if i < Array.length t then t.(i) else 0
let class_value t (c : Counter.t) cls = word t (c.offset + cls)

let snapshot () : Snapshot.t =
  Mutex.lock mu;
  let ds = List.rev !defs in
  Mutex.unlock mu;
  let t = totals () in
  let entries =
    List.filter_map
      (fun d ->
        let value =
          match d.kind with
          | K_cells -> None
          | K_counter ->
              let n = ref 0 in
              for i = 0 to Plane.line_words - 1 do
                n := !n + word t (d.offset + i)
              done;
              Some (Snapshot.Counter !n)
          | K_histogram b ->
              let counts = Array.init b (fun i -> word t (d.offset + i)) in
              Some (Snapshot.Histogram { Snapshot.counts; sum = word t (d.offset + b) })
        in
        Option.map
          (fun value -> { Snapshot.name = d.name; labels = d.labels; help = d.help; value })
          value)
      ds
  in
  { Snapshot.time = Unix.gettimeofday (); entries }
