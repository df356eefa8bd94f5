let class_slots = Tcm_metrics.Plane.line_words

(* ------------------------------------------------------------------ *)
(* Registry: families and class slots                                  *)
(* ------------------------------------------------------------------ *)

module Counter = Tcm_metrics.Core.Counter

(* A family's lines.  [commits] and [aborts] are the family's
   [tcm_commits_total] / [tcm_aborts_total] series themselves; the rest
   are ledger-only lines of the metric store. *)
type t = {
  backend : string;
  manager : string;
  runtime : string;
  commits : Counter.t;
  aborts : Counter.t;
  wasted : Counter.t;
  useful : Counter.t;
  waits : Counter.t;
  wait_cost : Counter.t;
  wait_ticks : Counter.t;
}

let mu = Mutex.create ()
let families : (string * string * string, t) Hashtbl.t = Hashtbl.create 16
let family_order : t list ref = ref []
let classes : (string, int) Hashtbl.t = Hashtbl.create 8
let class_names = Array.make class_slots "-"
let n_classes = ref 1
let () = Hashtbl.replace classes "-" 0

let class_slot name =
  Mutex.lock mu;
  let s =
    match Hashtbl.find_opt classes name with
    | Some s -> s
    | None ->
        if !n_classes >= class_slots then 0
        else begin
          let s = !n_classes in
          incr n_classes;
          class_names.(s) <- name;
          Hashtbl.replace classes name s;
          s
        end
  in
  Mutex.unlock mu;
  s

let set_class = Tcm_metrics.Core.set_class

let for_manager ?(backend = "locator") ~runtime manager =
  Mutex.lock mu;
  let t =
    match Hashtbl.find_opt families (backend, manager, runtime) with
    | Some t -> t
    | None ->
        let mx = Tcm_metrics.Conventions.for_manager ~backend ~runtime manager in
        let labels = [ ("backend", backend); ("manager", manager); ("runtime", runtime) ] in
        let line name = Counter.cells ~labels ("tcm_ledger_" ^ name) in
        let t =
          {
            backend;
            manager;
            runtime;
            commits = Tcm_metrics.Conventions.commits mx;
            aborts = Tcm_metrics.Conventions.aborts mx;
            wasted = line "wasted_work";
            useful = line "useful_work";
            waits = line "waits";
            wait_cost = line "wait_cost";
            wait_ticks = line "wait_ticks";
          }
        in
        Hashtbl.replace families (backend, manager, runtime) t;
        family_order := t :: !family_order;
        t
  in
  Mutex.unlock mu;
  t

(* ------------------------------------------------------------------ *)
(* Charges: the ledger-only lines                                      *)
(* ------------------------------------------------------------------ *)

let[@inline] charge_abort t ~work = Counter.add t.wasted work

let[@inline] charge_wait t ~cost ~ticks =
  Counter.incr t.waits;
  Counter.add t.wait_cost cost;
  Counter.add t.wait_ticks ticks

let[@inline] note_commit t ~work = Counter.add t.useful work

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type row = {
  backend : string;
  manager : string;
  runtime : string;
  cls : string;
  aborts : int;
  wasted_work : int;
  waits : int;
  wait_cost : int;
  wait_ticks : int;
  commits : int;
  useful_work : int;
}

let price r = r.wasted_work + r.wait_ticks

let rows () =
  Mutex.lock mu;
  let fams = List.rev !family_order in
  let ncls = !n_classes in
  Mutex.unlock mu;
  let tot = Tcm_metrics.Core.totals () in
  List.concat_map
    (fun (f : t) ->
      List.filter_map
        (fun c ->
          let v line = Tcm_metrics.Core.class_value tot line c in
          let r =
            {
              backend = f.backend;
              manager = f.manager;
              runtime = f.runtime;
              cls = class_names.(c);
              aborts = v f.aborts;
              wasted_work = v f.wasted;
              waits = v f.waits;
              wait_cost = v f.wait_cost;
              wait_ticks = v f.wait_ticks;
              commits = v f.commits;
              useful_work = v f.useful;
            }
          in
          if
            r.aborts = 0 && r.wasted_work = 0 && r.waits = 0
            && r.wait_cost = 0 && r.wait_ticks = 0 && r.commits = 0
            && r.useful_work = 0
          then None
          else Some r)
        (List.init ncls (fun c -> c)))
    fams

let pp fmt (rs : row list) =
  Format.fprintf fmt "%-14s %-8s %-5s %-6s %9s %9s %10s %8s %10s %10s %8s@."
    "manager" "backend" "rt" "class" "commits" "aborts" "wasted" "waits"
    "wait-cost" "wait-ticks" "price";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-14s %-8s %-5s %-6s %9d %9d %10d %8d %10d %10d %8d@."
        r.manager r.backend r.runtime r.cls r.commits r.aborts r.wasted_work
        r.waits r.wait_cost r.wait_ticks (price r))
    rs
