(** End-host network stack.

    Hosts are completely unmodified by PortLand — this agent implements
    only what any Ethernet/IP host does: a boot-time gratuitous ARP, an
    ARP cache with expiry and retry, IP send/receive, IGMP membership
    reports, and acceptance of unsolicited (gratuitous) ARP replies —
    which is precisely the hook PortLand's migration support relies on.

    The transport library layers UDP/TCP endpoints on {!set_rx}. *)

type t

(** The host's own counter record, updated in place; [private], so
    callers read it but never write or build one. *)
type host_counters = private {
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable arps_sent : int;
  mutable pending_drops : int;
      (** packets dropped because the ARP queue overflowed, or because the
          resolution they were queued on was abandoned *)
  mutable arp_abandoned : int;
      (** resolutions given up after [arp_retry_limit] retransmissions
          with exponential ([arp_backoff]) spacing *)
}

val create :
  Eventsim.Engine.t -> Config.t -> Switchfab.Net.t -> device:int ->
  amac:Netcore.Mac_addr.t -> ip:Netcore.Ipv4_addr.t -> ?obs:Obs.t -> unit -> t
(** [obs] (default {!Obs.null}) gets a pull-probe exporting the
    {!host_counters} as [host/*] samples labelled with the primary IP. *)

val start : t -> unit
(** Schedule the boot gratuitous ARP ([host_announce_delay] plus a small
    deterministic per-host stagger) and install the receive handler. *)

val announce : t -> unit
(** Send a gratuitous ARP immediately — what a freshly migrated VM does
    when it resumes on its new machine. *)

val ip : t -> Netcore.Ipv4_addr.t
(** The primary interface's address. *)

val amac : t -> Netcore.Mac_addr.t
val device_id : t -> int

(** {1 Virtual machines}

    A physical machine can host several VMs behind its one NIC; each VM
    has its own AMAC and IP. The edge switch assigns each a PMAC that
    differs only in the [vmid] field — precisely why PMAC carries one.
    Migration in this model moves the whole machine. *)

val add_vm : t -> amac:Netcore.Mac_addr.t -> ip:Netcore.Ipv4_addr.t -> unit
(** Attach a guest VM interface. Announces itself immediately when the
    host is already started. Raises [Invalid_argument] if the IP is
    already hosted here. *)

val vm_ips : t -> Netcore.Ipv4_addr.t list
(** Guest VM addresses (excludes the primary). *)

val send_ip_as :
  t -> src_ip:Netcore.Ipv4_addr.t -> dst:Netcore.Ipv4_addr.t -> Netcore.Ipv4_pkt.payload -> unit
(** Send sourced from a specific hosted interface (primary or VM). *)

val send_ip : t -> dst:Netcore.Ipv4_addr.t -> Netcore.Ipv4_pkt.payload -> unit
(** Resolve (or use the cached) destination MAC and transmit. While ARP is
    outstanding, up to [host_pending_limit] packets queue per
    destination. Multicast destinations map directly to group MACs. *)

val join_group : t -> Netcore.Ipv4_addr.t -> unit
val leave_group : t -> Netcore.Ipv4_addr.t -> unit

val set_rx : t -> (Netcore.Ipv4_pkt.t -> unit) -> unit
(** Callback for IP packets addressed to this host (or to a group). *)

val arp_lookup : t -> Netcore.Ipv4_addr.t -> Netcore.Mac_addr.t option
(** Current (unexpired) cache entry — exposed for tests. *)

val flush_arp_cache : t -> unit

val counters : t -> host_counters
(** A copy, so a caller can keep it and diff it against a later one. *)
