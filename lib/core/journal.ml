(* The control-plane update journal: every dataplane-relevant mutation of
   a running deployment, as one typed record, delivered to every
   subscriber of the fabric's one sink. See journal.mli. *)

type update =
  | Flow of { switch : int; change : Switchfab.Flow_table.update }
  | Fault_delta of { fault : Fault.t; active : bool }
  | Binding of { ip : Netcore.Ipv4_addr.t }
  | Coords_assigned of { switch : int }
  | Link_state of { a : int; b : int; up : bool }
  | Device_state of { device : int; up : bool }
  | Wiring of { device : int }
  | Fm_restarted

type hook = update -> unit

(* one box per subscription, so an unsubscribe removes exactly its own
   entry even when the same closure is subscribed twice *)
type sub = { hook : hook }

type t = { mutable subs : sub list (* subscription order *) }

let create () = { subs = [] }

let emit t u = List.iter (fun s -> s.hook u) t.subs

let subscribe t hook =
  let s = { hook } in
  t.subs <- t.subs @ [ s ];
  fun () -> t.subs <- List.filter (fun x -> x != s) t.subs

let pp fmt = function
  | Flow { switch; change } ->
    Format.fprintf fmt "flow sw=%d: %a" switch Switchfab.Flow_table.pp_update change
  | Fault_delta { fault; active } ->
    Format.fprintf fmt "fault %a %s" Fault.pp fault (if active then "raised" else "cleared")
  | Binding { ip } -> Format.fprintf fmt "binding %a" Netcore.Ipv4_addr.pp ip
  | Coords_assigned { switch } -> Format.fprintf fmt "coords sw=%d" switch
  | Link_state { a; b; up } ->
    Format.fprintf fmt "link %d-%d %s" a b (if up then "up" else "down")
  | Device_state { device; up } ->
    Format.fprintf fmt "device %d %s" device (if up then "up" else "down")
  | Wiring { device } -> Format.fprintf fmt "wiring changed at device %d" device
  | Fm_restarted -> Format.pp_print_string fmt "fabric manager restarted"
