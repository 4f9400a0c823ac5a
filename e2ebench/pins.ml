(* Behaviour pins: (workload, fat-tree k, seed) -> expected fingerprint.
   Seed 1 is the default seed, seed 2 the held-out one; k = 4 rows are the
   smoke sizes. A run whose seed has a row must reproduce it exactly.

   - boot-k16: [Fabric.control_digest] after convergence;
   - failover-k16: the control digest before the faults, which the end
     state must equal;
   - traffic-k8: packets sent and delivered in the first round;
   - verify-k16: [Verify.digest_of_report];
   - policy-k12: [Policy.Check.digest_of_report];
   - chaos-k8: digest of the first campaign's [Chaos.report_to_json]. *)

let table =
  [ ("boot-k16", 16, 1, "3ad3adc46505e216");
    ("boot-k16", 16, 2, "2e59dabd3b50b52e");
    ("boot-k16", 4, 1, "0528301a30811acc");
    ("boot-k16", 4, 2, "0215a4314d760d34");
    ("failover-k16", 16, 1, "3ad3adc46505e216");
    ("failover-k16", 16, 2, "2e59dabd3b50b52e");
    ("failover-k16", 4, 1, "0528301a30811acc");
    ("failover-k16", 4, 2, "0215a4314d760d34");
    ("traffic-k8", 8, 1, "sent=768000 delivered=768000");
    ("traffic-k8", 8, 2, "sent=768000 delivered=768000");
    ("traffic-k8", 4, 1, "sent=6400 delivered=6400");
    ("traffic-k8", 4, 2, "sent=6400 delivered=6400");
    ("verify-k16", 16, 1, "37cbfdee7a61d975");
    ("verify-k16", 16, 2, "37cbfdee7a61d975");
    ("verify-k16", 4, 1, "1e3cb055f3cab6b1");
    ("verify-k16", 4, 2, "1e3cb055f3cab6b1");
    ("policy-k12", 12, 1, "1ea935583be687db");
    ("policy-k12", 12, 2, "1ea935583be687db");
    ("policy-k12", 4, 1, "1732ff26e7b827d5");
    ("policy-k12", 4, 2, "1732ff26e7b827d5");
    ("chaos-k8", 8, 1, "b91aa6d959942e3a");
    ("chaos-k8", 8, 2, "0b5c896c9f5e5ffb");
    ("chaos-k8", 4, 1, "be4c79565c978619");
    ("chaos-k8", 4, 2, "3a92cfab70a75c0c") ]

let expected ~workload ~k ~seed =
  List.find_map
    (fun (w, k', s, v) -> if w = workload && k' = k && s = seed then Some v else None)
    table
