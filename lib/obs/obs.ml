open Eventsim

type labels = (string * string) list

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* JSON has no lexeme for non-finite numbers *)
      if Float.is_nan f || f = infinity || f = neg_infinity then Buffer.add_string buf "null"
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
    | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

module Label = struct
  let sw id = ("sw", string_of_int id)
  let host ip = ("host", ip)
end

type value = Count of int | Value of float | Summary of summary
and summary = { n : int; mean : float; vmin : float; vmax : float; p50 : float; p99 : float }

type sample = { subsystem : string; name : string; labels : labels; value : value }

type t = {
  enabled : bool;
  probes : (string, int * (unit -> sample list)) Hashtbl.t;
      (* name -> (registration sequence, reader) *)
  mutable registered : int;
}

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare (a : string) b) labels

let key_of ~subsystem ~name labels =
  match labels with
  | [] -> subsystem ^ "/" ^ name
  | _ ->
    subsystem ^ "/" ^ name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let create () = { enabled = true; probes = Hashtbl.create 64; registered = 0 }

let null = { enabled = false; probes = Hashtbl.create 1; registered = 0 }

let enabled t = t.enabled

(* ---------------- probes ---------------- *)

let sample ~subsystem ~name ?(labels = []) value =
  { subsystem; name; labels = canon_labels labels; value }

(* a replacement keeps the name's first registration sequence *)
let add_probe t ~name f =
  if t.enabled then
    match Hashtbl.find_opt t.probes name with
    | Some (seq, _) -> Hashtbl.replace t.probes name (seq, f)
    | None ->
      Hashtbl.replace t.probes name (t.registered, f);
      t.registered <- t.registered + 1

(* ---------------- snapshot & export ---------------- *)

let summary_of_dist d =
  let n = Stats.Distribution.count d in
  if n = 0 then Summary { n = 0; mean = 0.0; vmin = 0.0; vmax = 0.0; p50 = 0.0; p99 = 0.0 }
  else
    Summary
      { n;
        mean = Stats.Distribution.mean d;
        vmin = Stats.Distribution.min d;
        vmax = Stats.Distribution.max d;
        p50 = Stats.Distribution.percentile d 50.0;
        p99 = Stats.Distribution.percentile d 99.0 }

let sample_key s = key_of ~subsystem:s.subsystem ~name:s.name s.labels

let snapshot t =
  Hashtbl.fold (fun _ probe acc -> probe :: acc) t.probes []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  |> List.concat_map (fun (_, f) -> f ())
  |> List.sort (fun a b -> compare (sample_key a) (sample_key b))

let find t ~subsystem ~name ?(labels = []) () =
  let key = key_of ~subsystem ~name (canon_labels labels) in
  List.find_opt (fun s -> sample_key s = key) (snapshot t) |> Option.map (fun s -> s.value)

let json_fields_of_value = function
  | Count n -> [ ("type", Json.Str "counter"); ("value", Json.Int n) ]
  | Value v -> [ ("type", Json.Str "gauge"); ("value", Json.Float v) ]
  | Summary s ->
    [ ("type", Json.Str "histogram");
      ("count", Json.Int s.n);
      ("mean", Json.Float s.mean);
      ("min", Json.Float s.vmin);
      ("max", Json.Float s.vmax);
      ("p50", Json.Float s.p50);
      ("p99", Json.Float s.p99) ]

let json_of_sample s =
  Json.Obj
    (("key", Json.Str (sample_key s))
     :: ("subsystem", Json.Str s.subsystem)
     :: ("name", Json.Str s.name)
     :: ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels))
     :: json_fields_of_value s.value)

let to_json t = Json.Obj [ ("metrics", Json.List (List.map json_of_sample (snapshot t))) ]

(* RFC 4180: a field holding a comma or a quote is quoted, inner quotes
   doubled; a key with two labels has a comma between them *)
let csv_field f =
  if String.contains f ',' || String.contains f '"' then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
  else f

let csv_row s =
  let key = csv_field (sample_key s) in
  match s.value with
  | Count n -> Printf.sprintf "%s,counter,%d,,,,,," key n
  | Value v -> Printf.sprintf "%s,gauge,%.12g,,,,,," key v
  | Summary x ->
    Printf.sprintf "%s,histogram,,%d,%.12g,%.12g,%.12g,%.12g,%.12g" key x.n x.mean x.vmin
      x.vmax x.p50 x.p99

let to_csv t =
  String.concat "\n" ("key,type,value,count,mean,min,max,p50,p99" :: List.map csv_row (snapshot t))
  ^ "\n"

let write_json t ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

let value_string = function
  | Count n -> string_of_int n
  | Value v -> Printf.sprintf "%.6g" v
  | Summary s ->
    Printf.sprintf "n=%d mean=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g" s.n s.mean s.vmin s.p50
      s.p99 s.vmax

let pp_snapshot fmt t =
  List.iter
    (fun s -> Format.fprintf fmt "%-44s %s@." (sample_key s) (value_string s.value))
    (snapshot t)
