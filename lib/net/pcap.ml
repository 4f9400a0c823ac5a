type record = { time_ns : int; data : bytes }

type t = { mutable records : record list; mutable count : int }

let create () = { records = []; count = 0 }

let add_frame t ~time_ns frame =
  t.records <- { time_ns; data = Codec.encode frame } :: t.records;
  t.count <- t.count + 1

let frame_count t = t.count

let le32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let le16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let contents t =
  let buf = Buffer.create (4096 + (t.count * 128)) in
  (* global header: nanosecond-resolution magic *)
  le32 buf 0xa1b23c4d;
  le16 buf 2 (* major *);
  le16 buf 4 (* minor *);
  le32 buf 0 (* thiszone *);
  le32 buf 0 (* sigfigs *);
  le32 buf 65535 (* snaplen *);
  le32 buf 1 (* LINKTYPE_ETHERNET *);
  List.iter
    (fun r ->
      le32 buf (r.time_ns / 1_000_000_000);
      le32 buf (r.time_ns mod 1_000_000_000);
      le32 buf (Bytes.length r.data);
      le32 buf (Bytes.length r.data);
      Buffer.add_bytes buf r.data)
    (List.rev t.records);
  Buffer.to_bytes buf

let write_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (contents t))
