(** Static network topology: a port-labelled multigraph.

    A topology is pure structure — which device ports are wired to which —
    with no behaviour. [Switchfab.Net] instantiates a runtime network from
    it; builders live in {!Fattree} and {!Multirooted}. *)

type kind = Host | Edge_switch | Agg_switch | Core_switch

type node = {
  id : int;        (** dense, unique, 0-based *)
  kind : kind;
  name : string;   (** human-readable, unique (e.g. ["edge-2-1"]) *)
  nports : int;
}

type endpoint = { node : int; port : int }

type link = { a : endpoint; b : endpoint }

type t

val create : nodes:node list -> links:link list -> t
(** Validates: dense ids matching list order; ports within range; no port
    wired twice; no self-loops on the same port. Raises
    [Invalid_argument] on violation. *)

val node_count : t -> int
val link_count : t -> int
val node : t -> int -> node
val nodes : t -> node array
val links : t -> link array
val find_by_name : t -> string -> node option

val peer : t -> node:int -> port:int -> endpoint option
(** The endpoint wired to the given port, if any. *)

val link_index : t -> node:int -> port:int -> int option
(** Index into {!links} of the link attached at the given port. *)

val neighbors : t -> int -> (int * endpoint) list
(** [(local_port, remote_endpoint)] for every wired port, port order. *)

val degree : t -> int -> int
(** Number of wired ports. *)

val nodes_of_kind : t -> kind -> node list

val is_connected : t -> bool
(** Whole graph reachable from node 0 (false for an empty topology). *)

(** Topology family descriptors.

    A family names a whole wiring discipline, not one instance: [Plain] is
    the canonical k-ary fat tree, [Ab] the F10-style AB fat tree whose
    odd pods transpose their agg–core stripes over the core grid, and
    [Two_layer] the oversubscribed leaf–spine (no aggregation tier, every
    leaf wired to every spine). {!Multirooted.spec_of_family} turns a
    descriptor into a concrete build spec; [Fabric.Config.of_family] boots
    a PortLand control plane on any member. *)
module Family : sig
  type t =
    | Plain of { k : int }
    | Ab of { k : int }
    | Two_layer of { leaves : int; spines : int; hosts_per_leaf : int }

  val to_string : t -> string
  (** ["plain" | "ab" | "two-layer"] — the [--topology] flag values. *)

  val names : string list

  val of_string : k:int -> string -> (t, string) result
  (** The canonical member at arity [k]: plain/AB fat trees use [k]
      directly; ["two-layer"] maps to [k] leaves, [k/2] spines and [k]
      hosts per leaf (2:1 oversubscription, leaf radix 3k/2). *)

  val all : k:int -> t list
  (** One canonical member per family, in {!names} order. *)

  val pp : Format.formatter -> t -> unit
end

val pp_summary : Format.formatter -> t -> unit

val to_dot : ?name:string -> t -> string
(** Graphviz rendering: hosts as boxes, switches as ellipses ranked by
    tier (cores on top), links labelled with their port pairs. Pipe into
    [dot -Tsvg] to draw the fabric. *)
