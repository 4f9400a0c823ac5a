(** Experiment E6 — "Fabric manager control traffic".

    Two parts, matching the paper's methodology:

    - {b Modelled ARP load at scale.} The paper assumes each host opens
      25 new flows per second; a fraction of those miss the host's ARP
      cache and reach the fabric manager. The table sweeps fabric size
      (k = 8 … 48, i.e. 128 … 27,648 hosts) and miss fractions.
    - {b Measured control traffic on real (simulated) fabrics.} Boots
      k = 4, 6, 8 fabrics and reports actual control-network message
      counts through discovery plus a steady-state window — grounding the
      model's per-switch constants in the implementation. *)

type model_row = {
  k : int;
  hosts : int;
  arps_per_sec_1pct : float;
  arps_per_sec_10pct : float;
  arps_per_sec_100pct : float;
}

type measured_row = {
  mk : int;
  switches : int;
  boot_msgs_to_fm : int;
  boot_msgs_to_switches : int;
  boot_bytes : int;  (** wire bytes both directions, as {!Portland.Ctrl} meters them *)
  steady_msgs_per_sec : float;
}

type result = {
  flows_per_host_per_sec : int;
  model : model_row list;
  measured : measured_row list;
}

include Experiment.S with type result := result
