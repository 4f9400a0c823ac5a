(** Generalized multi-rooted tree builder.

    PortLand targets any multi-rooted tree, of which the k-ary fat tree is
    the canonical instance ({!Fattree} is a thin wrapper over this module).
    A spec describes a three-tier topology:

    - [num_pods] pods, each with [edges_per_pod] edge switches and
      [aggs_per_pod] aggregation switches, fully bipartitely wired inside
      the pod;
    - [hosts_per_edge] hosts per edge switch;
    - [num_cores] core switches, each with exactly one link to every pod;
    - a [wiring] discipline for the uplink tier:
      {ul
      {- [Stripes] — plain fat-tree striping: aggregation switch at
         position [a] (in every pod) connects to cores [a*u .. a*u+u-1]
         where [u = num_cores / aggs_per_pod];}
      {- [Ab_stripes] — F10-style AB wiring over the square core grid
         ([num_cores = aggs_per_pod^2], so [u = aggs_per_pod]): viewing
         core [i] as grid cell [(row, member) = (i/u, i mod u)], even
         ("type A") pods keep the row wiring while odd ("type B") pods
         transpose it — their agg at position [a] connects to column [a],
         i.e. cores [(j, a)] for all [j]. Adjacent pods thus disagree on
         which cores share an uplink bundle, which is exactly what makes
         single-failure recovery local (F10, NSDI '13);}
      {- [Flat] — oversubscribed two-layer leaf–spine: no aggregation
         tier ([aggs_per_pod = 0], [edges_per_pod = 1]); every leaf
         (edge) connects directly to every spine (core). The
         uplink:downlink ratio is [num_cores : hosts_per_edge].}}

    {b Stripe labels.} The control plane names uplink bundles with a
    per-pod {e stripe label} [sigma]. Under [Stripes] it is the agg
    position. Under [Ab_stripes] the label space doubles: row aggs carry
    [sigma in 0..u-1] (covering core row [sigma]), column aggs carry
    [sigma in u..2u-1] (covering core column [sigma - u]) — so a label
    alone pins down the exact core set [C(sigma)] with no extra pod-type
    bookkeeping. Under [Flat] there is a single pseudo-stripe [0] whose
    member [m] is spine [m]. Cores are labelled [(row, member)] — their
    grid cell, or [(0, m)] for spine [m].

    Port conventions (relied upon throughout the PortLand layer):
    - edge switch: ports [0 .. hosts_per_edge-1] face hosts (down),
      remaining ports face aggregation switches — or, under [Flat],
      spines — in order;
    - aggregation switch: ports [0 .. edges_per_pod-1] face edge switches
      (down, indexed by edge position), remaining ports face its core
      bundle (up, in order);
    - core switch: port [p] faces pod [p];
    - host: single port (0) to its edge switch. *)

type wiring = Stripes | Ab_stripes | Flat

type spec = {
  wiring : wiring;
  num_pods : int;
  edges_per_pod : int;
  aggs_per_pod : int;   (** 0 under [Flat] *)
  hosts_per_edge : int;
  num_cores : int;
}

type t = {
  spec : spec;
  topo : Topo.t;
  hosts : int array;        (** node id of host [pod*epp*hpe + edge*hpe + slot] *)
  edges : int array array;  (** [edges.(pod).(pos)] *)
  aggs : int array array;   (** [aggs.(pod).(pos)]; empty rows under [Flat] *)
  cores : int array;        (** [cores.(core_index ~row ~member)] *)
}

val validate_spec : spec -> (unit, string) result
(** All counts positive and the wiring's own constraint: [Stripes] needs
    [num_cores] divisible by [aggs_per_pod]; [Ab_stripes] needs the
    square grid [num_cores = aggs_per_pod^2]; [Flat] needs
    [aggs_per_pod = 0] and [edges_per_pod = 1]. *)

val build : spec -> t
(** Raises [Invalid_argument] when {!validate_spec} fails. *)

val spec_of_family : Topo.Family.t -> spec
(** Concrete spec for a family member: [Plain]/[Ab {k}] are the k-ary
    fat trees (k pods of k/2+k/2 switches, (k/2)^2 cores) under the
    respective wiring; [Two_layer] maps leaves/spines/hosts directly. *)

val build_family : Topo.Family.t -> t

val uplinks_per_agg : spec -> int
(** [num_cores / aggs_per_pod]; 0 under [Flat]. *)

val edge_uplinks : spec -> int
(** Up-facing ports per edge switch: [aggs_per_pod], or [num_cores]
    under [Flat]. *)


val pod_is_type_b : spec -> pod:int -> bool
(** Ground truth of the builder: odd pods transpose under [Ab_stripes];
    false otherwise. *)

val agg_stripe_label : spec -> pod:int -> agg_pos:int -> int
(** Stripe label the control plane will converge on for that agg. *)

val core_label : spec -> index:int -> int * int
(** [(row, member)] grid cell of core [index] ([(0, index)] under
    [Flat]). *)

val core_index : spec -> row:int -> member:int -> int
(** Inverse of {!core_label}. *)

val stripe_cores : spec -> stripe:int -> (int * int) list
(** [C(sigma)]: core labels reachable through an agg labelled [stripe]. *)

val stripes_covering : spec -> row:int -> member:int -> int list
(** All labels [sigma] with [(row, member)] ∈ [C(sigma)] — at most one
    per pod type, so testing a remote pod's uplink faults against this
    list is exact even without knowing that pod's type. *)

val pod_stripe_for_core : spec -> pod:int -> row:int -> member:int -> int
(** The label of the (unique) agg in [pod] wired to that core. *)

val agg_uplink_core_index : spec -> pod:int -> agg_pos:int -> j:int -> int
(** Core (array index) on uplink [j] of the agg at [agg_pos] in [pod]. *)


val agg_uplink_port : t -> stripe_member:int -> int
(** Aggregation-switch port facing member [stripe_member] of its core
    bundle. *)

val core_of_stripe : t -> agg_pos:int -> member:int -> int
(** Node id of that core switch ([Stripes] wiring only). *)

val host_location : t -> int -> (int * int * int) option
(** [host_location t id] is [(pod, edge_pos, slot)] when [id] is a host. *)
