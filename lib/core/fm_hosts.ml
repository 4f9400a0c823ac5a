open Netcore

type pending_arp = { from_sw : int; requester_ip : Ipv4_addr.t; requester_port : int }

type counts = {
  mutable arp_queries : int;
  mutable arp_hits : int;
  mutable arp_misses : int;
  mutable host_announces : int;
  mutable migrations : int;
  mutable pending_dropped : int;
  mutable shard_failovers : int;
}

type t = {
  engine : Eventsim.Engine.t;
  config : Config.t;
  ctrl : Ctrl.t;
  journal : Journal.t;
  labels : Fm_labels.t;
  bindings : (Ipv4_addr.t, Msg.host_binding) Hashtbl.t;
      (* the binding records, the FM's one durable record of hosts:
         migration detection, edge restores, the serving index's source *)
  pending : (Ipv4_addr.t, pending_arp list) Hashtbl.t;
  mutable index : int array;
      (* serving index: [resolve]'s only path, updated in place on every
         binding write (see [index_set]) *)
  mutable index_count : int; (* occupied slots of [index] *)
  mutable arp_gen : int; (* bumped on every migration; stamps ARP answers *)
  c : counts;
}

(* Host IPs are 10.pod.edge.slot (see Fabric), so the pod is a pure
   function of the address — which is what lets a failover drop the
   pending ARPs of one pod. *)
let pod_of_ip ip = (Ipv4_addr.to_int ip lsr 16) land 0xff

let counts t = t.c
let arp_generation t = t.arp_gen
let binding_count t = Hashtbl.length t.bindings
let pending_count t = Hashtbl.length t.pending

(* ---------------- serving index ---------------- *)

(* A flat open-addressed mirror of [bindings]. A PMAC is 40 bits of
   payload (pod < 256, position/port 8 bits, vmid 16), so a slot pair is
   the key (ip+1, never 0 = empty) next to the packed PMAC in one int
   array — a hit is one cache line instead of a bucket-chain walk.
   Fibonacci hashing scatters the IPs; capacity doubles whenever load
   would pass 3/4, so linear probes stay short. Bindings are only ever
   inserted or overwritten in place (a failover rebuilds the whole index
   from the binding table), so probes need no tombstones. *)
let pmac_pack (p : Pmac.t) =
  (p.Pmac.pod lsl 32) lor (p.Pmac.position lsl 24) lor (p.Pmac.port lsl 16) lor p.Pmac.vmid

let pmac_unpack v =
  { Pmac.pod = v lsr 32; position = (v lsr 24) land 0xff; port = (v lsr 16) land 0xff;
    vmid = v land 0xffff }

let index_key ip = Ipv4_addr.to_int ip + 1

(* the slot holding [key], or the empty slot where it would go. The mask
   keeps every probe in bounds, hence the unchecked reads. *)
let index_slot slots key =
  let mask = (Array.length slots lsr 1) - 1 in
  let j = ref (((key * 0x2545F4914F6CDD1D) lsr 25) land mask) in
  let slot = ref (Array.unsafe_get slots (2 * !j)) in
  while !slot <> key && !slot <> 0 do
    j := (!j + 1) land mask;
    slot := Array.unsafe_get slots (2 * !j)
  done;
  !j

let index_create n =
  let cap = ref 16 in
  while !cap * 3 < n * 4 do
    cap := !cap * 2
  done;
  Array.make (2 * !cap) 0

let rec index_set t key v =
  let j = index_slot t.index key in
  if t.index.(2 * j) <> 0 then t.index.((2 * j) + 1) <- v
  else if (t.index_count + 1) * 4 > (Array.length t.index lsr 1) * 3 then begin
    let old = t.index in
    t.index <- Array.make (2 * Array.length old) 0;
    t.index_count <- 0;
    for i = 0 to (Array.length old lsr 1) - 1 do
      if old.(2 * i) <> 0 then index_set t old.(2 * i) old.((2 * i) + 1)
    done;
    index_set t key v
  end
  else begin
    t.index.(2 * j) <- key;
    t.index.((2 * j) + 1) <- v;
    t.index_count <- t.index_count + 1
  end

let index_rebuild t =
  t.index <- index_create (Hashtbl.length t.bindings);
  t.index_count <- 0;
  Hashtbl.iter (fun ip b -> index_set t (index_key ip) (pmac_pack b.Msg.pmac)) t.bindings

let resolve t ip =
  let key = index_key ip in
  let j = index_slot t.index key in
  if Array.unsafe_get t.index (2 * j) = key then
    Some (pmac_unpack (Array.unsafe_get t.index ((2 * j) + 1)))
  else None

let lookup_binding t ip = Hashtbl.find_opt t.bindings ip

(* every binding write: record, serving index, journal *)
let write_binding t (b : Msg.host_binding) =
  Hashtbl.replace t.bindings b.Msg.ip b;
  index_set t (index_key b.Msg.ip) (pmac_pack b.Msg.pmac);
  Journal.emit t.journal (Journal.Binding { ip = b.Msg.ip })

let create engine config ctrl journal labels =
  { engine; config; ctrl; journal; labels;
    bindings = Hashtbl.create 1024;
    pending = Hashtbl.create 16;
    index = index_create 0;
    index_count = 0;
    arp_gen = 0;
    c =
      { arp_queries = 0; arp_hits = 0; arp_misses = 0; host_announces = 0; migrations = 0;
        pending_dropped = 0; shard_failovers = 0 } }

(* the live bindings at [edge], in IP order; a host that migrated away is
   bound elsewhere now and is not among them *)
let bindings_at t edge =
  Hashtbl.fold
    (fun _ (b : Msg.host_binding) acc -> if b.Msg.edge_switch = edge then b :: acc else acc)
    t.bindings []
  |> List.sort (fun (a : Msg.host_binding) b ->
         compare (Ipv4_addr.to_int a.Msg.ip) (Ipv4_addr.to_int b.Msg.ip))

(* ---------------- ARP & host mappings ---------------- *)

let answer_arp t ~to_sw ~target_ip ~target_pmac ~requester_ip ~requester_port =
  Ctrl.send_to_switch t.ctrl to_sw
    (Msg.Arp_answer { target_ip; target_pmac; requester_ip; requester_port; gen = t.arp_gen })

let on_arp_query t ~from_sw ~requester_ip ~requester_pmac ~requester_port ~target_ip =
  t.c.arp_queries <- t.c.arp_queries + 1;
  let respond () =
    match resolve t target_ip with
    | Some pmac ->
      t.c.arp_hits <- t.c.arp_hits + 1;
      answer_arp t ~to_sw:from_sw ~target_ip ~target_pmac:(Some pmac) ~requester_ip
        ~requester_port
    | None ->
      t.c.arp_misses <- t.c.arp_misses + 1;
      let entry = { from_sw; requester_ip; requester_port } in
      let waiting = try Hashtbl.find t.pending target_ip with Not_found -> [] in
      (* a host retrying the same unresolved target re-misses here: keep
         one pending entry per (switch, requester, port) or the eventual
         announce would multiply the replies *)
      if not (List.mem entry waiting) then
        Hashtbl.replace t.pending target_ip (entry :: waiting);
      (* broadcast fallback: every edge switch re-emits the query on its
         host ports *)
      List.iter
        (fun (sw : Fm_labels.sw_info) ->
          Ctrl.send_to_switch t.ctrl sw.sw_id
            (Msg.Arp_flood { requester_ip; requester_pmac; target_ip }))
        (Fm_labels.edges t.labels)
  in
  (* model the fabric manager's per-request service time *)
  ignore (Eventsim.Engine.schedule t.engine ~delay:t.config.Config.fm_arp_service_time respond)

(* A dead or cold-rebooting edge switch must not be sent ARP replies: it
   lost the requester state the reply refers to (and under a reboot the
   reply would race the resync). Entries naming it are dropped — the
   requesting host's retry/backoff path re-resolves once the fabric
   heals. Fired from the control network when a switch unregisters. *)
let on_switch_unregistered t switch_id =
  let stale =
    Hashtbl.fold
      (fun ip waiting acc ->
        if List.exists (fun w -> w.from_sw = switch_id) waiting then (ip, waiting) :: acc
        else acc)
      t.pending []
  in
  List.iter
    (fun (ip, waiting) ->
      let keep, drop = List.partition (fun w -> w.from_sw <> switch_id) waiting in
      t.c.pending_dropped <- t.c.pending_dropped + List.length drop;
      if keep = [] then Hashtbl.remove t.pending ip else Hashtbl.replace t.pending ip keep)
    stale

let on_host_announce t (b : Msg.host_binding) =
  t.c.host_announces <- t.c.host_announces + 1;
  (match Hashtbl.find_opt t.bindings b.Msg.ip with
   | Some old when not (Pmac.equal old.Msg.pmac b.Msg.pmac) ->
     (* the IP moved: a VM migration (or host re-plug). Invalidate at the
        previous edge switch so stale senders are corrected, and advance
        the ARP generation so every edge-cached answer fabric-wide goes
        stale and re-resolves. *)
     t.c.migrations <- t.c.migrations + 1;
     Ctrl.send_to_switch t.ctrl old.Msg.edge_switch
       (Msg.Invalidate_pmac { ip = b.Msg.ip; old_pmac = old.Msg.pmac; new_pmac = b.Msg.pmac });
     t.arp_gen <- t.arp_gen + 1;
     Ctrl.broadcast_to_switches t.ctrl (Msg.Arp_gen { gen = t.arp_gen })
   | Some _ | None -> ());
  write_binding t b;
  (* answer anyone who was waiting on this mapping — except switches that
     died while the resolution was in flight *)
  match Hashtbl.find_opt t.pending b.Msg.ip with
  | None -> ()
  | Some waiting ->
    Hashtbl.remove t.pending b.Msg.ip;
    List.iter
      (fun w ->
        if Ctrl.has_switch t.ctrl w.from_sw then
          answer_arp t ~to_sw:w.from_sw ~target_ip:b.Msg.ip ~target_pmac:(Some b.Msg.pmac)
            ~requester_ip:w.requester_ip ~requester_port:w.requester_port
        else t.c.pending_dropped <- t.c.pending_dropped + 1)
      waiting

(* ---------------- failover & integrity ---------------- *)

(* The serving index mirrors the binding table exactly, both directions:
   every binding resolves to its PMAC, and every occupied slot names a
   bound IP. Also run by the mc invariant pack and the chaos quiescent
   checks. *)
let integrity t =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let ip_s = Ipv4_addr.to_string in
  Hashtbl.iter
    (fun ip (b : Msg.host_binding) ->
      match resolve t ip with
      | Some p when Pmac.equal p b.Msg.pmac -> ()
      | Some _ -> bad "serving index disagrees with the binding for %s" (ip_s ip)
      | None -> bad "serving index misses binding %s" (ip_s ip))
    t.bindings;
  for j = 0 to (Array.length t.index lsr 1) - 1 do
    let key = t.index.(2 * j) in
    if key <> 0 then begin
      let ip = Ipv4_addr.of_int (key - 1) in
      if not (Hashtbl.mem t.bindings ip) then
        bad "serving index holds %s absent from the bindings" (ip_s ip)
    end
  done;
  List.rev !violations

(* Failover: the FM loses its volatile serving state. The binding table
   is the durable record and survives; the pending ARPs for the failed
   pod's IPs are dropped (the host retry path recovers them) and the
   serving index is rebuilt from the binding table. Returns true iff the
   rebuilt index passes the integrity pack. *)
let failover t ~pod =
  t.c.shard_failovers <- t.c.shard_failovers + 1;
  let stale =
    Hashtbl.fold (fun ip w acc -> if pod_of_ip ip = pod then (ip, w) :: acc else acc) t.pending []
  in
  List.iter
    (fun (ip, w) ->
      t.c.pending_dropped <- t.c.pending_dropped + List.length w;
      Hashtbl.remove t.pending ip)
    stale;
  index_rebuild t;
  integrity t = []
