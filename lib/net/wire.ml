module Writer = struct
  type t = { buf : Buffer.t }

  let create () = { buf = Buffer.create 128 }
  let u8 t v = Buffer.add_char t.buf (Char.chr (v land 0xff))

  let u16 t v =
    u8 t (v lsr 8);
    u8 t v

  let u32 t v =
    u16 t (v lsr 16);
    u16 t v

  let u64 t v =
    u32 t (v lsr 32);
    u32 t v

  let mac t m = Buffer.add_string t.buf (Mac_addr.to_bytes m)
  let ip t a = u32 t (Ipv4_addr.to_int a)
  let zeros t n = Buffer.add_string t.buf (String.make n '\000')
  let bytes t b = Buffer.add_bytes t.buf b
  let contents t = Buffer.to_bytes t.buf
  let length t = Buffer.length t.buf
end

module Reader = struct
  type t = { buf : bytes; mutable rpos : int; limit : int }

  exception Short

  let create ?(off = 0) ?len buf =
    let limit = match len with Some l -> off + l | None -> Bytes.length buf in
    { buf; rpos = off; limit }

  let remaining t = t.limit - t.rpos
  let pos t = t.rpos
  let raw t = t.buf

  let u8 t =
    if t.rpos >= t.limit then raise Short;
    let v = Char.code (Bytes.get t.buf t.rpos) in
    t.rpos <- t.rpos + 1;
    v

  let u16 t =
    let hi = u8 t in
    (hi lsl 8) lor u8 t

  let u32 t =
    let hi = u16 t in
    (hi lsl 16) lor u16 t

  let u64 t =
    let hi = u32 t in
    (hi lsl 32) lor u32 t

  let mac t =
    (* 48-bit big-endian integer read — no intermediate string *)
    if remaining t < 6 then raise Short;
    let hi = u16 t in
    Mac_addr.of_int ((hi lsl 32) lor u32 t)

  let ip t = Ipv4_addr.of_int (u32 t)

  let skip t n =
    if n < 0 || remaining t < n then raise Short;
    t.rpos <- t.rpos + n
end
