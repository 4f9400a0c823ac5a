open Netcore
module W = Wire.Writer
module R = Wire.Reader

(* ---------------- typed decode errors ---------------- *)

type error =
  | Truncated of { tag : int option }
  | Unknown_tag of int
  | Trailing_bytes of int
  | Bad_field of { tag : int option; what : string }

let pp_error fmt = function
  | Truncated { tag = None } -> Format.pp_print_string fmt "truncated frame (no tag byte)"
  | Truncated { tag = Some t } -> Format.fprintf fmt "truncated frame (tag %d)" t
  | Unknown_tag t -> Format.fprintf fmt "unknown message tag %d" t
  | Trailing_bytes n -> Format.fprintf fmt "%d trailing byte(s) after message" n
  | Bad_field { tag; what } ->
    Format.fprintf fmt "malformed field%s: %s"
      (match tag with Some t -> Printf.sprintf " (tag %d)" t | None -> "")
      what

exception Unknown of int

(* Decode bodies signal malformed-but-complete fields via [failwith] and
   unrecognized tags via [Unknown]; [decode_with] maps every escape
   hatch — including reader exhaustion — to a typed error so no
   control-plane frame, however truncated or corrupted, can raise out of
   a decoder. *)
let decode_with r body =
  match R.u8 r with
  | exception R.Short -> Error (Truncated { tag = None })
  | tag ->
    (match body tag with
     | msg ->
       if R.remaining r <> 0 then Error (Trailing_bytes (R.remaining r)) else Ok msg
     | exception R.Short -> Error (Truncated { tag = Some tag })
     | exception Unknown t -> Error (Unknown_tag t)
     | exception Failure what -> Error (Bad_field { tag = Some tag; what })
     | exception Invalid_argument what -> Error (Bad_field { tag = Some tag; what }))

(* ---------------- shared field codecs ---------------- *)

let w_level w = function
  | None -> W.u8 w 0xff
  | Some Ldp_msg.Edge -> W.u8 w 0
  | Some Ldp_msg.Aggregation -> W.u8 w 1
  | Some Ldp_msg.Core -> W.u8 w 2

let r_level r =
  match R.u8 r with
  | 0xff -> None
  | 0 -> Some Ldp_msg.Edge
  | 1 -> Some Ldp_msg.Aggregation
  | 2 -> Some Ldp_msg.Core
  | n -> failwith (Printf.sprintf "level: %d" n)

let w_pmac w p = W.mac w (Pmac.to_mac p)
let r_pmac r = Pmac.of_mac (R.mac r)

let w_coords w = function
  | Coords.Edge { pod; position } ->
    W.u8 w 0;
    W.u16 w pod;
    W.u16 w position
  | Coords.Agg { pod; stripe } ->
    W.u8 w 1;
    W.u16 w pod;
    W.u16 w stripe
  | Coords.Core { stripe; member } ->
    W.u8 w 2;
    W.u16 w stripe;
    W.u16 w member

let r_coords r =
  let kind = R.u8 r in
  let a = R.u16 r in
  let b = R.u16 r in
  match kind with
  | 0 -> Coords.Edge { pod = a; position = b }
  | 1 -> Coords.Agg { pod = a; stripe = b }
  | 2 -> Coords.Core { stripe = a; member = b }
  | n -> failwith (Printf.sprintf "coords kind: %d" n)

let w_fault w = function
  | Fault.Edge_agg { pod; edge_pos; stripe } ->
    W.u8 w 0;
    W.u16 w pod;
    W.u16 w edge_pos;
    W.u16 w stripe
  | Fault.Agg_core { pod; stripe; member } ->
    W.u8 w 1;
    W.u16 w pod;
    W.u16 w stripe;
    W.u16 w member
  | Fault.Host_edge { pod; edge_pos; port } ->
    W.u8 w 2;
    W.u16 w pod;
    W.u16 w edge_pos;
    W.u16 w port

let r_fault r =
  let kind = R.u8 r in
  let a = R.u16 r in
  let b = R.u16 r in
  let c = R.u16 r in
  match kind with
  | 0 -> Fault.Edge_agg { pod = a; edge_pos = b; stripe = c }
  | 1 -> Fault.Agg_core { pod = a; stripe = b; member = c }
  | 2 -> Fault.Host_edge { pod = a; edge_pos = b; port = c }
  | n -> failwith (Printf.sprintf "fault kind: %d" n)

let w_binding w (b : Msg.host_binding) =
  W.ip w b.Msg.ip;
  W.mac w b.Msg.amac;
  w_pmac w b.Msg.pmac;
  W.u32 w b.Msg.edge_switch

let r_binding r =
  let ip = R.ip r in
  let amac = R.mac r in
  let pmac = r_pmac r in
  let edge_switch = R.u32 r in
  { Msg.ip; amac; pmac; edge_switch }

let w_list w f xs =
  W.u16 w (List.length xs);
  List.iter (f w) xs

let r_list r f =
  let n = R.u16 r in
  List.init n (fun _ -> f r)

(* ---------------- switch -> fabric manager ---------------- *)

let encode_to_fm (msg : Msg.to_fm) =
  let w = W.create () in
  (match msg with
   | Msg.Neighbor_report { switch_id; level; neighbors; host_ports } ->
     W.u8 w 1;
     W.u32 w switch_id;
     w_level w level;
     w_list w
       (fun w (port, nbr, nbr_level) ->
         W.u16 w port;
         W.u32 w nbr;
         w_level w nbr_level)
       neighbors;
     w_list w (fun w p -> W.u16 w p) host_ports
   | Msg.Propose_position { switch_id; position } ->
     W.u8 w 2;
     W.u32 w switch_id;
     W.u16 w position
   | Msg.Arp_query { switch_id; requester_ip; requester_pmac; requester_port; target_ip } ->
     W.u8 w 3;
     W.u32 w switch_id;
     W.ip w requester_ip;
     w_pmac w requester_pmac;
     W.u16 w requester_port;
     W.ip w target_ip
   | Msg.Host_announce b ->
     W.u8 w 4;
     w_binding w b
   | Msg.Fault_notice { switch_id; port; neighbor } ->
     W.u8 w 5;
     W.u32 w switch_id;
     W.u16 w port;
     W.u32 w neighbor
   | Msg.Recovery_notice { switch_id; port; neighbor } ->
     W.u8 w 6;
     W.u32 w switch_id;
     W.u16 w port;
     W.u32 w neighbor
   | Msg.Mcast_join { switch_id; group; port } ->
     W.u8 w 7;
     W.u32 w switch_id;
     W.ip w group;
     W.u16 w port
   | Msg.Mcast_leave { switch_id; group; port } ->
     W.u8 w 8;
     W.u32 w switch_id;
     W.ip w group;
     W.u16 w port
   | Msg.Reclaim_coords { switch_id; coords } ->
     W.u8 w 9;
     W.u32 w switch_id;
     w_coords w coords
   | Msg.Coords_request { switch_id } ->
     W.u8 w 10;
     W.u32 w switch_id);
  W.contents w

let decode_to_fm bytes_ =
  let r = R.create bytes_ in
  decode_with r (fun tag ->
      match tag with
      | 1 ->
        let switch_id = R.u32 r in
        let level = r_level r in
        let neighbors =
          r_list r (fun r ->
              let port = R.u16 r in
              let nbr = R.u32 r in
              let nbr_level = r_level r in
              (port, nbr, nbr_level))
        in
        let host_ports = r_list r (fun r -> R.u16 r) in
        Msg.Neighbor_report { switch_id; level; neighbors; host_ports }
      | 2 ->
        let switch_id = R.u32 r in
        let position = R.u16 r in
        Msg.Propose_position { switch_id; position }
      | 3 ->
        let switch_id = R.u32 r in
        let requester_ip = R.ip r in
        let requester_pmac = r_pmac r in
        let requester_port = R.u16 r in
        let target_ip = R.ip r in
        Msg.Arp_query { switch_id; requester_ip; requester_pmac; requester_port; target_ip }
      | 4 -> Msg.Host_announce (r_binding r)
      | 5 ->
        let switch_id = R.u32 r in
        let port = R.u16 r in
        let neighbor = R.u32 r in
        Msg.Fault_notice { switch_id; port; neighbor }
      | 6 ->
        let switch_id = R.u32 r in
        let port = R.u16 r in
        let neighbor = R.u32 r in
        Msg.Recovery_notice { switch_id; port; neighbor }
      | 7 ->
        let switch_id = R.u32 r in
        let group = R.ip r in
        let port = R.u16 r in
        Msg.Mcast_join { switch_id; group; port }
      | 8 ->
        let switch_id = R.u32 r in
        let group = R.ip r in
        let port = R.u16 r in
        Msg.Mcast_leave { switch_id; group; port }
      | 9 ->
        let switch_id = R.u32 r in
        let coords = r_coords r in
        Msg.Reclaim_coords { switch_id; coords }
      | 10 ->
        let switch_id = R.u32 r in
        Msg.Coords_request { switch_id }
      | n -> raise (Unknown n))

(* ---------------- fabric manager -> switch ---------------- *)

let encode_to_switch (msg : Msg.to_switch) =
  let w = W.create () in
  (match msg with
   | Msg.Assign_coords c ->
     W.u8 w 1;
     w_coords w c
   | Msg.Position_denied { position } ->
     W.u8 w 2;
     W.u16 w position
   | Msg.Arp_answer { target_ip; target_pmac; requester_ip; requester_port; gen } ->
     W.u8 w 3;
     W.ip w target_ip;
     (match target_pmac with
      | Some p ->
        W.u8 w 1;
        w_pmac w p
      | None -> W.u8 w 0);
     W.ip w requester_ip;
     W.u16 w requester_port;
     W.u32 w gen
   | Msg.Arp_flood { requester_ip; requester_pmac; target_ip } ->
     W.u8 w 4;
     W.ip w requester_ip;
     w_pmac w requester_pmac;
     W.ip w target_ip
   | Msg.Fault_update { faults } ->
     W.u8 w 5;
     w_list w w_fault faults
   | Msg.Invalidate_pmac { ip; old_pmac; new_pmac } ->
     W.u8 w 6;
     W.ip w ip;
     w_pmac w old_pmac;
     w_pmac w new_pmac
   | Msg.Mcast_program { group; out_ports } ->
     W.u8 w 7;
     W.ip w group;
     w_list w (fun w p -> W.u16 w p) out_ports
   | Msg.Resync_request -> W.u8 w 8
   | Msg.Host_restore { bindings } ->
     W.u8 w 9;
     w_list w w_binding bindings
   | Msg.Arp_gen { gen } ->
     W.u8 w 10;
     W.u32 w gen);
  W.contents w

let decode_to_switch bytes_ =
  let r = R.create bytes_ in
  decode_with r (fun tag ->
      match tag with
      | 1 -> Msg.Assign_coords (r_coords r)
      | 2 ->
        let position = R.u16 r in
        Msg.Position_denied { position }
      | 3 ->
        let target_ip = R.ip r in
        let target_pmac = match R.u8 r with 0 -> None | _ -> Some (r_pmac r) in
        let requester_ip = R.ip r in
        let requester_port = R.u16 r in
        let gen = R.u32 r in
        Msg.Arp_answer { target_ip; target_pmac; requester_ip; requester_port; gen }
      | 4 ->
        let requester_ip = R.ip r in
        let requester_pmac = r_pmac r in
        let target_ip = R.ip r in
        Msg.Arp_flood { requester_ip; requester_pmac; target_ip }
      | 5 -> Msg.Fault_update { faults = r_list r r_fault }
      | 6 ->
        let ip = R.ip r in
        let old_pmac = r_pmac r in
        let new_pmac = r_pmac r in
        Msg.Invalidate_pmac { ip; old_pmac; new_pmac }
      | 7 ->
        let group = R.ip r in
        let out_ports = r_list r (fun r -> R.u16 r) in
        Msg.Mcast_program { group; out_ports }
      | 8 -> Msg.Resync_request
      | 9 -> Msg.Host_restore { bindings = r_list r r_binding }
      | 10 ->
        let gen = R.u32 r in
        Msg.Arp_gen { gen }
      | n -> raise (Unknown n))

let to_fm_wire_len msg = Bytes.length (encode_to_fm msg)
let to_switch_wire_len msg = Bytes.length (encode_to_switch msg)
