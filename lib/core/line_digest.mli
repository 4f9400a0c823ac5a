(** The repo's one state fingerprint: a 16-hex-digit FNV-1a digest over
    a list of lines, each followed by a 0 byte so that line boundaries
    are part of the hash. The offset basis is truncated to 62 bits to
    fit OCaml's native ints. {!Fabric.control_digest}, the verifier's
    and the policy checker's report digests and the fabric manager's
    binding fingerprint are all this function over their canonical
    lines. *)

val of_lines : string list -> string
