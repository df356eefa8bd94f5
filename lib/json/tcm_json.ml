type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  add_quoted buf s;
  Buffer.contents buf

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s -> add_quoted buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_quoted buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 4096 in
  emit buf t;
  Buffer.contents buf

exception Parse_error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let of_string str =
  let n = String.length str in
  let pos = ref 0 in
  let fail msg = error "%s at byte %d" msg !pos in
  let peek () = if !pos < n then str.[!pos] else '\255' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let keyword w v =
    if !pos + String.length w <= n && String.sub str !pos (String.length w) = w then begin
      pos := !pos + String.length w;
      v
    end
    else fail (Printf.sprintf "expected %s" w)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> fail "bad \\u escape"
  in
  let utf8 buf cp =
    (* Surrogate pairs are not recombined: the writers never emit them
       (they copy UTF-8 and escape only controls). *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match str.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match str.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let d i = hex str.[!pos + i] in
              utf8 buf ((d 1 lsl 12) lor (d 2 lsl 8) lor (d 3 lsl 4) lor d 4);
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character in string"
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char str.[!pos] do
      incr pos
    done;
    let tok = String.sub str start (!pos - start) in
    let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    match if floaty then None else int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> keyword "null" Null
    | 't' -> keyword "true" (Bool true)
    | 'f' -> keyword "false" (Bool false)
    | '"' -> Str (parse_string ())
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                elems (v :: acc)
            | ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elems [])
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec members acc =
            let kv = member () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                members (kv :: acc)
            | '}' ->
                incr pos;
                List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | '-' | '0' .. '9' -> parse_number ()
    | '\255' when !pos >= n -> fail "unexpected end of input"
    | c -> fail (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let int_opt = function Int i -> Some i | _ -> None
let float_opt = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let str_opt = function Str s -> Some s | _ -> None
let list_opt = function Arr xs -> Some xs | _ -> None
let assoc_opt = function Obj kvs -> Some kvs | _ -> None

let get what conv k j =
  match member k j with
  | None -> error "missing field %S" k
  | Some v -> (
      match conv v with Some x -> x | None -> error "field %S is not %s" k what)

let get_int = get "an int" int_opt
let get_float = get "a number" float_opt
let get_str = get "a string" str_opt
let get_list = get "an array" list_opt
let get_assoc = get "an object" assoc_opt

let convert what conv v =
  match conv v with Some x -> x | None -> error "expected %s, got %s" what (to_string v)

let to_int = convert "an int" int_opt
let to_str = convert "a string" str_opt

let iter_jsonl path f =
  In_channel.with_open_text path (fun ic ->
      let rec go line_no =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (if String.trim line <> "" then
               try f (of_string line)
               with Parse_error msg | Failure msg ->
                 failwith (Printf.sprintf "%s:%d: %s" path line_no msg));
            go (line_no + 1)
      in
      go 1)
