(** Inspect tcm.obs artifacts: flight-recorder bundles (as written by
    [tcm_service.exe run --flight-dir]) and priced conflict scores over
    tcm.trace dumps.

    [report] renders a bundle — or every bundle under a directory —
    as the ledger / hot-key / event summary it froze; [price] scores a
    trace dump (or a bundle's embedded events) in the Alistarh et al.
    cost model; [hot] prints just the hot-key tables; [replay]
    re-emits a bundle's events as a plain tcm-trace/1 JSONL file so
    the tcm_trace.exe analyzers can chew on them. *)

open Cmdliner
module Flight = Tcm_obs.Flight
module Ledger = Tcm_obs.Ledger
module Hot = Tcm_obs.Hot

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2)
    fmt

(* A positional argument that may name one bundle or a directory of
   them (the --flight-dir of a service run). *)
let bundle_paths path =
  if Sys.is_directory path then (
    match Flight.bundles path with
    | [] -> fail "%s: no flight-*.jsonl bundles" path
    | ps -> ps)
  else [ path ]

let load_bundle path =
  try Flight.read_bundle path with Sys_error msg | Failure msg -> fail "%s" msg

let pp_bundle ppf (path, (b : Flight.bundle)) =
  Format.fprintf ppf "@[<v>bundle   %s@," path;
  Format.fprintf ppf "tag      %s@," b.b_tag;
  Format.fprintf ppf "trigger  %s@," b.b_trigger;
  Format.fprintf ppf "unix_ms  %d@," b.b_unix_ms;
  Format.fprintf ppf "events   %d%s@,"
    (Array.length b.b_events)
    (if b.b_drops > 0 then Printf.sprintf " (+%d dropped)" b.b_drops else "");
  if b.b_ledger <> [] then Format.fprintf ppf "%a" Ledger.pp b.b_ledger;
  if b.b_hot <> [] then Format.fprintf ppf "%a" (Hot.pp ?n:None) b.b_hot;
  Format.fprintf ppf "@]"

let report path =
  let bundles = List.map (fun p -> (p, load_bundle p)) (bundle_paths path) in
  List.iter (fun b -> Format.printf "%a@." pp_bundle b) bundles;
  Printf.printf "%d bundle(s)\n" (List.length bundles)

let path_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BUNDLE" ~doc:"A flight bundle, or a directory of them.")

(* price: accept either a plain trace dump or a flight bundle — the
   latter is detected by its schema header. *)
let is_flight path =
  let line =
    try In_channel.with_open_text path In_channel.input_line
    with Sys_error msg -> fail "%s" msg
  in
  match Option.map Tcm_json.of_string line with
  | Some j -> Tcm_json.member "schema" j = Some (Tcm_json.Str Flight.schema)
  | None | (exception Tcm_json.Parse_error _) -> false

let price path =
  let score name events =
    Format.printf "%s:@.%a" name Tcm_trace.Analysis.pp_price
      (Tcm_trace.Analysis.price events)
  in
  if Sys.is_directory path then
    List.iter
      (fun p -> score p (load_bundle p).b_events)
      (bundle_paths path)
  else if is_flight path then score path (load_bundle path).b_events
  else
    let events =
      try fst (Tcm_trace.Export.read_jsonl path)
      with Sys_error msg | Failure msg -> fail "%s" msg
    in
    score path events

let trace_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE"
        ~doc:"A tcm-trace/1 dump, a flight bundle, or a directory of bundles.")

let hot n path =
  let bundles = List.map load_bundle (bundle_paths path) in
  List.iter
    (fun (b : Flight.bundle) ->
      if b.b_hot <> [] then Format.printf "%a@." (Hot.pp ~n) b.b_hot)
    bundles

let n_arg =
  Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Keys per family to print.")

let replay path out =
  let b = load_bundle path in
  Tcm_trace.Export.write_jsonl ~drops:b.b_drops ~manager:b.b_tag out b.b_events;
  Printf.printf "wrote %s (%d events, %d drops; feed to tcm_trace.exe)\n" out
    (Array.length b.b_events) b.b_drops

let out_arg =
  Arg.(
    value
    & opt string "flight_replay.jsonl"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let cmds =
  [
    Cmd.v
      (Cmd.info "report"
         ~doc:"Render flight bundle(s): trigger, ledger rows, hot keys, event counts.")
      Term.(const report $ path_arg);
    Cmd.v
      (Cmd.info "price"
         ~doc:
           "Score a trace (or a bundle's events) in the Alistarh et al. cost \
            model: wasted work + wait cost per commit.")
      Term.(const price $ trace_arg);
    Cmd.v
      (Cmd.info "hot" ~doc:"Print the hot-key tables of flight bundle(s).")
      Term.(const hot $ n_arg $ path_arg);
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Re-emit a bundle's events as a plain tcm-trace/1 JSONL dump.")
      Term.(const replay $ path_arg $ out_arg);
  ]

let () =
  let doc = "Inspect tcm.obs flight bundles and priced conflict scores." in
  exit (Cmd.eval (Cmd.group (Cmd.info "tcm-obs" ~doc) cmds))
