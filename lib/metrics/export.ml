(** Exporters: Prometheus text exposition format and JSONL, plus the
    matching parsers (the smoke tests and the CLI re-read both
    formats, so neither can rot silently). *)

let schema = "tcm-metrics/1"

module Json = Tcm_json

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Json.quote k ^ ":" ^ Json.quote v) labels)
  ^ "}"

let output_jsonl ?(windows = []) oc (s : Snapshot.t) =
  Printf.fprintf oc "{\"schema\":\"%s\",\"time\":%.6f,\"entries\":%d,\"windows\":%d}\n"
    schema s.Snapshot.time
    (List.length s.Snapshot.entries)
    (List.length windows);
  List.iter
    (fun (e : Snapshot.entry) ->
      match e.value with
      | Snapshot.Counter v ->
          Printf.fprintf oc "{\"type\":\"counter\",\"name\":%s,\"labels\":%s,\"value\":%d}\n"
            (Json.quote e.name) (labels_json e.labels) v
      | Snapshot.Histogram h ->
          Printf.fprintf oc
            "{\"type\":\"histogram\",\"name\":%s,\"labels\":%s,\"sum\":%d,\"counts\":[%s]}\n"
            (Json.quote e.name) (labels_json e.labels) h.Snapshot.sum
            (String.concat "," (Array.to_list (Array.map string_of_int h.Snapshot.counts))))
    s.Snapshot.entries;
  List.iter
    (fun (w : Sampler.window) ->
      Printf.fprintf oc
        "{\"type\":\"window\",\"name\":%s,\"labels\":%s,\"t0\":%.6f,\"t1\":%.6f,\"delta\":%d}\n"
        (Json.quote w.Sampler.w_name)
        (labels_json w.Sampler.w_labels)
        w.Sampler.w_t0 w.Sampler.w_t1 w.Sampler.w_delta)
    windows

let write_jsonl ?windows path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_jsonl ?windows oc s)

let labels_of j =
  Snapshot.canon_labels (List.map (fun (k, v) -> (k, Json.to_str v)) (Json.get_assoc "labels" j))

let read_jsonl path : Snapshot.t * Sampler.window list =
  let time = ref 0. in
  let entries = ref [] in
  let windows = ref [] in
  let series j value =
    entries :=
      { Snapshot.name = Json.get_str "name" j; labels = labels_of j; help = ""; value }
      :: !entries
  in
  Json.iter_jsonl path (fun j ->
      match Json.member "schema" j with
      | Some _ ->
          let s = Json.get_str "schema" j in
          if s <> schema then failwith ("unknown metrics schema: " ^ s);
          time := Json.get_float "time" j
      | None -> (
          match Json.get_str "type" j with
          | "counter" -> series j (Snapshot.Counter (Json.get_int "value" j))
          | "histogram" ->
              series j
                (Snapshot.Histogram
                   {
                     Snapshot.counts =
                       Array.of_list (List.map Json.to_int (Json.get_list "counts" j));
                     sum = Json.get_int "sum" j;
                   })
          | "window" ->
              windows :=
                {
                  Sampler.w_name = Json.get_str "name" j;
                  w_labels = labels_of j;
                  w_t0 = Json.get_float "t0" j;
                  w_t1 = Json.get_float "t1" j;
                  w_delta = Json.get_int "delta" j;
                }
                :: !windows
          | t -> failwith ("unknown metrics line type: " ^ t)));
  ({ Snapshot.time = !time; entries = List.rev !entries }, List.rev !windows)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition format                                   *)
(* ------------------------------------------------------------------ *)

(* The exposition format escapes only backslash, double quote and
   newline in a label value; every other byte is copied. *)
let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Scan the double-quoted label value starting at [line.[j] = '"'];
   returns it unescaped and the index past the closing quote. *)
let scan_label_value line j =
  let n = String.length line in
  if j >= n || line.[j] <> '"' then failwith ("expected string at: " ^ line);
  let buf = Buffer.create 16 in
  let rec go j =
    if j >= n then failwith ("unterminated string: " ^ line)
    else
      match line.[j] with
      | '"' -> (Buffer.contents buf, j + 1)
      | '\\' when j + 1 < n ->
          Buffer.add_char buf (match line.[j + 1] with 'n' -> '\n' | c -> c);
          go (j + 2)
      | c ->
          Buffer.add_char buf c;
          go (j + 1)
  in
  go (j + 1)

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels)
      ^ "}"

(* Group families: the exposition format wants every sample of one
   metric name contiguous, after its HELP/TYPE header. *)
let to_prometheus (s : Snapshot.t) =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let names = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Snapshot.entry) ->
      if not (Hashtbl.mem seen e.Snapshot.name) then begin
        Hashtbl.add seen e.Snapshot.name ();
        names := e.Snapshot.name :: !names
      end)
    s.Snapshot.entries;
  List.iter
    (fun name ->
      let family =
        List.filter (fun (e : Snapshot.entry) -> e.Snapshot.name = name) s.Snapshot.entries
      in
      (match family with
      | [] -> ()
      | e :: _ ->
          if e.help <> "" then out "# HELP %s %s\n" name e.help;
          out "# TYPE %s %s\n" name
            (match e.value with Snapshot.Counter _ -> "counter" | _ -> "histogram"));
      List.iter
        (fun (e : Snapshot.entry) ->
          match e.value with
          | Snapshot.Counter v -> out "%s%s %d\n" name (prom_labels e.labels) v
          | Snapshot.Histogram h ->
              let buckets = Array.length h.counts in
              let cum = ref 0 in
              Array.iteri
                (fun i c ->
                  cum := !cum + c;
                  let le =
                    if i = buckets - 1 then "+Inf"
                    else string_of_int (Buckets.upper_bound ~buckets i)
                  in
                  out "%s_bucket%s %d\n" name
                    (prom_labels (e.labels @ [ ("le", le) ]))
                    !cum)
                h.counts;
              out "%s_sum%s %d\n" name (prom_labels e.labels) h.Snapshot.sum;
              out "%s_count%s %d\n" name (prom_labels e.labels) !cum)
        family)
    (List.rev !names);
  Buffer.contents buf

let write_prometheus path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_prometheus s))

type prom_sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

(* Line parser for the exposition format we emit (name{labels} value);
   comments and blank lines are skipped. *)
let parse_prometheus text : prom_sample list =
  let lines = String.split_on_char '\n' text in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else begin
        let n = String.length line in
        let name_end = ref 0 in
        while
          !name_end < n
          &&
          match line.[!name_end] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
          | _ -> false
        do
          incr name_end
        done;
        if !name_end = 0 then failwith ("bad prometheus line: " ^ line);
        let name = String.sub line 0 !name_end in
        let labels, j =
          if !name_end < n && line.[!name_end] = '{' then begin
            let rec pairs acc j =
              if j >= n then failwith ("unterminated prometheus labels: " ^ line)
              else
                match line.[j] with
                | '}' -> (List.rev acc, j + 1)
                | ',' | ' ' -> pairs acc (j + 1)
                | _ ->
                    let stop = String.index_from line j '=' in
                    let k = String.sub line j (stop - j) in
                    let v, j = scan_label_value line (stop + 1) in
                    pairs ((k, v) :: acc) j
            in
            pairs [] (!name_end + 1)
          end
          else ([], !name_end)
        in
        let rest = String.trim (String.sub line j (n - j)) in
        let value = if rest = "+Inf" then infinity else float_of_string rest in
        Some { s_name = name; s_labels = labels; s_value = value }
      end)
    lines
