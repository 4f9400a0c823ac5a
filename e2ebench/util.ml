(* Clock, sample statistics, the host reference job and digests. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of an unsorted sample, [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A fixed job built from the standard library only (hash-table churn,
   list allocation, an array sort), so no change to the repository's code
   can change its cost. Timed between a run's operations, its median
   tracks how fast the shared host is running during that run. *)
let reference () =
  let tbl = Hashtbl.create 4096 in
  let st = ref 0x2545F491 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  let acc = ref 0 in
  for i = 1 to 60_000 do
    let k = next () land 0xffff in
    (match Hashtbl.find_opt tbl k with
     | Some l -> Hashtbl.replace tbl k (i :: l)
     | None -> Hashtbl.add tbl k [ i ]);
    match Hashtbl.find_opt tbl (next () land 0xffff) with
    | Some l -> acc := !acc + List.length l
    | None -> ()
  done;
  let a = Array.init 60_000 (fun _ -> next ()) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc + a.(0)))

(* The reference's median time on the host the bounds in BENCHMARK.json
   were set on (a 2-vCPU VM, OCaml 5.1): timings divided by
   [median reference / reference_nominal_s] are in that host's units. *)
let reference_nominal_s = 0.033

(* 16 hex digits of MD5: a compact, stable fingerprint for pins. *)
let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16
