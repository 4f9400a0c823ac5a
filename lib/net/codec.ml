(* Byte-level writer/reader helpers. All multi-byte integers are
   big-endian (network order). *)

module W = Wire.Writer
module R = Wire.Reader

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)              *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
         done;
         !c))

let crc32 buf off len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get buf i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* RFC 1071 ones'-complement checksum *)
let ipv4_checksum buf off len =
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + ((Char.code (Bytes.get buf !i) lsl 8) lor Char.code (Bytes.get buf (!i + 1)));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* ------------------------------------------------------------------ *)
(* Encoders                                                            *)

let encode_arp w (a : Arp.t) =
  W.u16 w 1 (* htype: ethernet *);
  W.u16 w 0x0800 (* ptype: ipv4 *);
  W.u8 w 6;
  W.u8 w 4;
  W.u16 w (match a.op with Arp.Request -> 1 | Arp.Reply -> 2);
  W.mac w a.sender_mac;
  W.ip w a.sender_ip;
  W.mac w a.target_mac;
  W.ip w a.target_ip

let encode_udp w (u : Udp.t) =
  W.u16 w u.src_port;
  W.u16 w u.dst_port;
  W.u16 w (Udp.wire_len u);
  W.u16 w 0 (* checksum: zero is legal for UDP/IPv4 *);
  W.u32 w u.flow_id;
  W.u64 w u.app_seq;
  W.zeros w (u.payload_len - Udp.meta_len)

let tcp_flag_bits (f : Tcp_seg.flags) =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor if f.ack then 0x10 else 0

let encode_tcp w (s : Tcp_seg.t) =
  W.u16 w s.src_port;
  W.u16 w s.dst_port;
  W.u32 w (s.seq land 0xFFFFFFFF);
  W.u32 w (s.ack_num land 0xFFFFFFFF);
  W.u8 w 0x50 (* data offset 5 words *);
  W.u8 w (tcp_flag_bits s.flags);
  W.u16 w s.window;
  W.u16 w 0 (* checksum: simplification, see Codec docs *);
  W.u16 w 0 (* urgent pointer *);
  W.zeros w s.payload_len

let encode_icmp w (m : Icmp.t) =
  (match m with
   | Icmp.Echo_request { ident; seq; payload_len } ->
     W.u8 w 8;
     W.u8 w 0;
     W.u16 w 0 (* checksum: simplification, see Codec docs *);
     W.u16 w ident;
     W.u16 w seq;
     W.zeros w payload_len
   | Icmp.Echo_reply { ident; seq; payload_len } ->
     W.u8 w 0;
     W.u8 w 0;
     W.u16 w 0;
     W.u16 w ident;
     W.u16 w seq;
     W.zeros w payload_len)

let encode_igmp w (m : Igmp.t) =
  W.u8 w (match m.op with Igmp.Join -> 0x16 | Igmp.Leave -> 0x17);
  W.u8 w 0;
  W.u16 w 0;
  W.ip w m.group

let encode_ipv4 w (p : Ipv4_pkt.t) =
  let header = W.create () in
  W.u8 header 0x45;
  W.u8 header 0;
  W.u16 header (Ipv4_pkt.wire_len p);
  W.u16 header 0 (* id *);
  W.u16 header 0x4000 (* DF *);
  W.u8 header p.ttl;
  W.u8 header (Ipv4_pkt.proto_number p.payload);
  W.u16 header 0 (* checksum placeholder *);
  W.ip header p.src;
  W.ip header p.dst;
  let hbytes = W.contents header in
  let csum = ipv4_checksum hbytes 0 Ipv4_pkt.header_len in
  Bytes.set hbytes 10 (Char.chr (csum lsr 8));
  Bytes.set hbytes 11 (Char.chr (csum land 0xff));
  W.bytes w hbytes;
  match p.payload with
  | Ipv4_pkt.Udp u -> encode_udp w u
  | Ipv4_pkt.Tcp s -> encode_tcp w s
  | Ipv4_pkt.Igmp m -> encode_igmp w m
  | Ipv4_pkt.Icmp m -> encode_icmp w m
  | Ipv4_pkt.Raw { len; _ } -> W.zeros w len

(* LDP fixed 16-byte layout:
   switch_id(4) level(1: 255=unknown,0=edge,1=agg,2=core) pod(2: 0xffff=unknown)
   position(1: 0xff=unknown) dir(1: 0=unknown,1=up,2=down) out_port(1) zeros(6) *)
let encode_ldp w (l : Ldp_msg.t) =
  W.u32 w l.switch_id;
  W.u8 w
    (match l.level with
     | None -> 0xff
     | Some Ldp_msg.Edge -> 0
     | Some Ldp_msg.Aggregation -> 1
     | Some Ldp_msg.Core -> 2);
  W.u16 w (match l.pod with None -> 0xffff | Some p -> p);
  W.u8 w (match l.position with None -> 0xff | Some p -> p);
  W.u8 w (match l.dir with Ldp_msg.Unknown_dir -> 0 | Ldp_msg.Up -> 1 | Ldp_msg.Down -> 2);
  W.u8 w l.out_port;
  W.zeros w 6

(* BPDU fixed 35-byte layout: root_id(4) root_cost(4) bridge_id(4) port(2) zeros(21) *)
let encode_bpdu w (b : Bpdu.t) =
  W.u32 w b.root_id;
  W.u32 w b.root_cost;
  W.u32 w b.bridge_id;
  W.u16 w b.port;
  W.zeros w 21

let encode (f : Eth.t) =
  let w = W.create () in
  W.mac w f.dst;
  W.mac w f.src;
  (match f.vlan with
   | Some vid ->
     W.u16 w 0x8100 (* 802.1Q TPID *);
     W.u16 w (vid land 0x0FFF) (* TCI: pcp/dei 0 *)
   | None -> ());
  W.u16 w (Eth.ethertype f.payload);
  (match f.payload with
   | Eth.Arp a -> encode_arp w a
   | Eth.Ipv4 p -> encode_ipv4 w p
   | Eth.Ldp l -> encode_ldp w l
   | Eth.Bpdu b -> encode_bpdu w b
   | Eth.Raw { len; _ } -> W.zeros w len);
  (* pad to minimum, then FCS *)
  let body_min = Eth.min_frame_len - Eth.fcs_len in
  let pad = max 0 (body_min - W.length w) in
  W.zeros w pad;
  let body = W.contents w in
  let fcs = crc32 body 0 (Bytes.length body) in
  let out = Bytes.create (Bytes.length body + 4) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bytes.set out (Bytes.length body) (Char.chr ((fcs lsr 24) land 0xff));
  Bytes.set out (Bytes.length body + 1) (Char.chr ((fcs lsr 16) land 0xff));
  Bytes.set out (Bytes.length body + 2) (Char.chr ((fcs lsr 8) land 0xff));
  Bytes.set out (Bytes.length body + 3) (Char.chr (fcs land 0xff));
  out

(* ------------------------------------------------------------------ *)
(* Decoders                                                            *)

let decode_arp r =
  let htype = R.u16 r in
  let ptype = R.u16 r in
  let hlen = R.u8 r in
  let plen = R.u8 r in
  if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then failwith "ARP: bad header";
  let op =
    match R.u16 r with
    | 1 -> Arp.Request
    | 2 -> Arp.Reply
    | n -> failwith (Printf.sprintf "ARP: unknown op %d" n)
  in
  let sender_mac = R.mac r in
  let sender_ip = R.ip r in
  let target_mac = R.mac r in
  let target_ip = R.ip r in
  { Arp.op; sender_mac; sender_ip; target_mac; target_ip }

let decode_udp r ~payload_total =
  let src_port = R.u16 r in
  let dst_port = R.u16 r in
  let len = R.u16 r in
  let _checksum = R.u16 r in
  if len <> payload_total then failwith "UDP: length mismatch";
  let flow_id = R.u32 r in
  let app_seq = R.u64 r in
  let payload_len = len - Udp.header_len in
  R.skip r (payload_len - Udp.meta_len);
  Udp.make ~src_port ~dst_port ~flow_id ~app_seq ~payload_len ()

let decode_tcp r ~payload_total =
  let src_port = R.u16 r in
  let dst_port = R.u16 r in
  let seq = R.u32 r in
  let ack_num = R.u32 r in
  let offset_byte = R.u8 r in
  if offset_byte lsr 4 <> 5 then failwith "TCP: options not supported";
  let bits = R.u8 r in
  let flags =
    { Tcp_seg.fin = bits land 0x01 <> 0;
      syn = bits land 0x02 <> 0;
      rst = bits land 0x04 <> 0;
      ack = bits land 0x10 <> 0 }
  in
  let window = R.u16 r in
  let _checksum = R.u16 r in
  let _urgent = R.u16 r in
  let payload_len = payload_total - Tcp_seg.header_len in
  if payload_len < 0 then failwith "TCP: truncated";
  R.skip r payload_len;
  Tcp_seg.make ~src_port ~dst_port ~flags ~window ~seq ~ack_num ~payload_len ()

let decode_icmp r ~payload_total =
  let ty = R.u8 r in
  let _code = R.u8 r in
  let _checksum = R.u16 r in
  let ident = R.u16 r in
  let seq = R.u16 r in
  let payload_len = payload_total - Icmp.header_len in
  if payload_len < 0 then failwith "ICMP: truncated";
  R.skip r payload_len;
  match ty with
  | 8 -> Icmp.Echo_request { ident; seq; payload_len }
  | 0 -> Icmp.Echo_reply { ident; seq; payload_len }
  | n -> failwith (Printf.sprintf "ICMP: unsupported type %d" n)

let decode_igmp r =
  let ty = R.u8 r in
  let _max_resp = R.u8 r in
  let _checksum = R.u16 r in
  let group = R.ip r in
  match ty with
  | 0x16 -> Igmp.join group
  | 0x17 -> Igmp.leave group
  | n -> failwith (Printf.sprintf "IGMP: unknown type 0x%02x" n)

let decode_ipv4 (r : R.t) =
  let header_start = R.pos r in
  let vihl = R.u8 r in
  if vihl <> 0x45 then failwith "IPv4: bad version/IHL";
  let _tos = R.u8 r in
  let total_len = R.u16 r in
  let _id = R.u16 r in
  let _frag = R.u16 r in
  let ttl = R.u8 r in
  let proto = R.u8 r in
  let _checksum = R.u16 r in
  let src = R.ip r in
  let dst = R.ip r in
  if ipv4_checksum (R.raw r) header_start Ipv4_pkt.header_len <> 0 then
    failwith "IPv4: header checksum mismatch";
  let payload_total = total_len - Ipv4_pkt.header_len in
  if payload_total < 0 || payload_total > R.remaining r then failwith "IPv4: bad total length";
  let payload =
    match proto with
    | 17 -> Ipv4_pkt.Udp (decode_udp r ~payload_total)
    | 6 -> Ipv4_pkt.Tcp (decode_tcp r ~payload_total)
    | 2 -> Ipv4_pkt.Igmp (decode_igmp r)
    | 1 -> Ipv4_pkt.Icmp (decode_icmp r ~payload_total)
    | p ->
      R.skip r payload_total;
      Ipv4_pkt.Raw { proto = p; len = payload_total }
  in
  Ipv4_pkt.make ~ttl ~src ~dst payload

let decode_ldp r =
  let switch_id = R.u32 r in
  let level =
    match R.u8 r with
    | 0xff -> None
    | 0 -> Some Ldp_msg.Edge
    | 1 -> Some Ldp_msg.Aggregation
    | 2 -> Some Ldp_msg.Core
    | n -> failwith (Printf.sprintf "LDP: unknown level %d" n)
  in
  let pod = match R.u16 r with 0xffff -> None | p -> Some p in
  let position = match R.u8 r with 0xff -> None | p -> Some p in
  let dir =
    match R.u8 r with
    | 0 -> Ldp_msg.Unknown_dir
    | 1 -> Ldp_msg.Up
    | 2 -> Ldp_msg.Down
    | n -> failwith (Printf.sprintf "LDP: unknown dir %d" n)
  in
  let out_port = R.u8 r in
  R.skip r 6;
  { Ldp_msg.switch_id; level; pod; position; dir; out_port }

let decode_bpdu r =
  let root_id = R.u32 r in
  let root_cost = R.u32 r in
  let bridge_id = R.u32 r in
  let port = R.u16 r in
  R.skip r 21;
  { Bpdu.root_id; root_cost; bridge_id; port }

let decode buf =
  try
    let total = Bytes.length buf in
    if total < Eth.min_frame_len then failwith "frame below Ethernet minimum";
    let body_len = total - Eth.fcs_len in
    let fcs_stored =
      (Char.code (Bytes.get buf body_len) lsl 24)
      lor (Char.code (Bytes.get buf (body_len + 1)) lsl 16)
      lor (Char.code (Bytes.get buf (body_len + 2)) lsl 8)
      lor Char.code (Bytes.get buf (body_len + 3))
    in
    if crc32 buf 0 body_len <> fcs_stored then failwith "FCS mismatch";
    let r = R.create ~len:body_len buf in
    let dst = R.mac r in
    let src = R.mac r in
    let first_type = R.u16 r in
    let vlan, ethertype =
      if first_type = 0x8100 then begin
        let tci = R.u16 r in
        (Some (tci land 0x0FFF), R.u16 r)
      end
      else (None, first_type)
    in
    let payload =
      if ethertype = 0x0806 then Eth.Arp (decode_arp r)
      else if ethertype = 0x0800 then Eth.Ipv4 (decode_ipv4 r)
      else if ethertype = Eth.ldp_ethertype then Eth.Ldp (decode_ldp r)
      else if ethertype = Eth.bpdu_ethertype then Eth.Bpdu (decode_bpdu r)
      else Eth.Raw { ethertype; len = R.remaining r }
    in
    Ok { Eth.dst; src; vlan; payload }
  with
  | Failure msg -> Error msg
  | R.Short -> Error "truncated frame"
  | Invalid_argument msg -> Error msg
