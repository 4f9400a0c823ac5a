module MR = Topology.Multirooted

type t = {
  ctrl : Ctrl.t;
  wiring : MR.wiring;
  set : Fault.Set.t;
  mutable notices : int;
  mutable broadcasts : int;
}

let create ctrl journal ~wiring =
  let set = Fault.Set.create () in
  (* fault-matrix deltas flow out of the set itself, so the notice
     handlers stay oblivious to journalling *)
  Fault.Set.set_hook set
    (Some (fun fault active -> Journal.emit journal (Journal.Fault_delta { fault; active })));
  { ctrl; wiring; set; notices = 0; broadcasts = 0 }

let set t = t.set
let notices t = t.notices
let broadcasts t = t.broadcasts

let translate wiring ca cb =
  match (ca, cb) with
  | Some (Coords.Edge e), Some (Coords.Agg g) | Some (Coords.Agg g), Some (Coords.Edge e) ->
    if e.pod = g.pod then
      Some (Fault.Edge_agg { pod = e.pod; edge_pos = e.position; stripe = g.stripe })
    else None
  | Some (Coords.Agg g), Some (Coords.Core c) | Some (Coords.Core c), Some (Coords.Agg g) ->
    (* keyed by the core's own (row, member) label: (pod, core) pins down
       one physical link under every wiring. Under plain striping the
       core's row equals the agg's stripe, so the key is unchanged;
       under AB a column agg's cores span all rows and only the core's
       label is unambiguous. *)
    Some (Fault.Agg_core { pod = g.pod; stripe = c.stripe; member = c.member })
  | Some (Coords.Edge e), Some (Coords.Core c) | Some (Coords.Core c), Some (Coords.Edge e) ->
    (* flat wiring: leaf–spine links live in the same key space *)
    if wiring = MR.Flat then
      Some (Fault.Agg_core { pod = e.pod; stripe = c.stripe; member = c.member })
    else None
  | _, _ -> None

let broadcast t =
  t.broadcasts <- t.broadcasts + 1;
  Ctrl.broadcast_to_switches t.ctrl (Msg.Fault_update { faults = Fault.Set.elements t.set })

let on_fault t ca cb =
  t.notices <- t.notices + 1;
  match translate t.wiring ca cb with
  | Some f when not (Fault.Set.mem t.set f) ->
    Fault.Set.add t.set f;
    broadcast t;
    true
  | Some _ | None -> false

let on_recovery t ca cb =
  match translate t.wiring ca cb with
  | Some f ->
    (* broadcast the matrix even when the fault was never recorded here: a
       notice for an unknown fault means some switch's local copy has
       drifted (e.g. the recovery raced a fabric-manager or switch
       restart), and switches replace — not merge — their sets on
       Fault_update, so a broadcast heals the drift. Recoveries are rare
       enough that the extra traffic is negligible. *)
    let recorded = Fault.Set.mem t.set f in
    Fault.Set.remove t.set f;
    broadcast t;
    recorded
  | None -> false
