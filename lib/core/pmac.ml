open Netcore

type t = { pod : int; position : int; port : int; vmid : int }

let make ~pod ~position ~port ~vmid =
  let check name v bound =
    if v < 0 || v >= bound then invalid_arg (Printf.sprintf "Pmac.make: %s out of range" name)
  in
  check "pod" pod 256;
  check "position" position 256;
  check "port" port 256;
  check "vmid" vmid 65536;
  if vmid < 1 then invalid_arg "Pmac.make: vmid 0 is reserved";
  { pod; position; port; vmid }

let to_mac t =
  Mac_addr.of_int ((t.pod lsl 32) lor (t.position lsl 24) lor (t.port lsl 16) lor t.vmid)

let of_mac mac =
  let v = Mac_addr.to_int mac in
  { pod = (v lsr 32) land 0xFFFF;
    position = (v lsr 24) land 0xFF;
    port = (v lsr 16) land 0xFF;
    vmid = v land 0xFFFF }

let is_pmac mac =
  let first_octet = Mac_addr.to_int mac lsr 40 in
  first_octet land 0x03 = 0

let pod_prefix ~pod = Switchfab.Flow_table.dst_prefix ~value:(pod lsl 32) ~len:16

let position_prefix ~pod ~position =
  Switchfab.Flow_table.dst_prefix ~value:((pod lsl 32) lor (position lsl 24)) ~len:24

let port_prefix ~pod ~position ~port =
  Switchfab.Flow_table.dst_prefix
    ~value:((pod lsl 32) lor (position lsl 24) lor (port lsl 16))
    ~len:32

let exact t = Switchfab.Flow_table.dst_prefix ~value:(Mac_addr.to_int (to_mac t)) ~len:48

let equal a b = a = b
let compare = Stdlib.compare

let pp fmt t = Format.fprintf fmt "pmac(%d.%d.%d.%d)" t.pod t.position t.port t.vmid
let to_string t = Format.asprintf "%a" pp t
