(** Consult-path cost gate: ns + GC minor words per [resolve] for every
    registered manager, through the consult entry points of both STM
    backends (the simulator shares the locator's).

    Usage: consult_cost.exe [iters] [--backend locator|tl2|all] [--check]

    [--check] is the @cm-smoke bound: zero minor words per resolve
    (within noise), an absolute latency ceiling, and a per-backend
    flatness band — see [Tcm_workload.Consult_cost.check].  Without it
    the table is informational. *)

module C = Tcm_workload.Consult_cost

let iters =
  let rec find i =
    if i >= Array.length Sys.argv then 200_000
    else
      match int_of_string_opt Sys.argv.(i) with Some n -> n | None -> find (i + 1)
  in
  find 1

let checking = Array.exists (( = ) "--check") Sys.argv

let backend_arg =
  let rec find i =
    if i >= Array.length Sys.argv then "all"
    else if Sys.argv.(i) = "--backend" then
      if i + 1 >= Array.length Sys.argv then begin
        Printf.eprintf "consult_cost: --backend requires an argument\n";
        exit 2
      end
      else Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let rows =
  match backend_arg with
  | "all" -> C.measure_all ~iters ()
  | name -> (
      match Tcm_stm.Stm.backend_of_name name with
      | Some b -> C.measure_backend ~iters b
      | None ->
          Printf.eprintf
            "consult_cost: unknown backend %S (locator, tl2 or all)\n" name;
          exit 2)

let () =
  Printf.printf "consult-cost probe: iters=%d (per resolve)\n" iters;
  Printf.printf "  %-10s %-14s %12s %14s\n" "backend" "manager" "ns" "minor words";
  List.iter
    (fun (r : C.row) ->
      Printf.printf "  %-10s %-14s %12.1f %14.4f\n" r.backend r.manager
        r.ns_per_resolve r.minor_words_per_resolve)
    rows;
  if checking then begin
    match C.check rows with
    | [] ->
        Printf.printf
          "consult-cost check OK: <= %.2f minor words/resolve, <= %.0f ns, \
           flatness <= %.0fx\n"
          C.max_minor_words C.max_ns C.flatness_ratio
    | violations ->
        List.iter (fun v -> Printf.eprintf "consult-cost check FAILED: %s\n" v)
          violations;
        exit 1
  end
