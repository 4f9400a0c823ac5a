module Growable = struct
  type t = { mutable data : float array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let add t x =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let data = Array.make ncap 0.0 in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1

  let to_array t = Array.sub t.data 0 t.size
end

module Distribution = struct
  type t = {
    samples : Growable.t;
    mutable sum : float;
    mutable sum_sq : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () =
    { samples = Growable.create (); sum = 0.0; sum_sq = 0.0; mn = infinity; mx = neg_infinity }

  let add t x =
    Growable.add t.samples x;
    t.sum <- t.sum +. x;
    t.sum_sq <- t.sum_sq +. (x *. x);
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let count t = t.samples.Growable.size
  let mean t = if count t = 0 then 0.0 else t.sum /. float_of_int (count t)
  let min t = t.mn
  let max t = t.mx

  let stddev t =
    let n = count t in
    if n < 2 then 0.0
    else begin
      let m = mean t in
      let var = (t.sum_sq /. float_of_int n) -. (m *. m) in
      sqrt (Stdlib.max 0.0 var)
    end

  let percentile t p =
    let n = count t in
    if n = 0 then 0.0
    else begin
      let sorted = Growable.to_array t.samples in
      Array.sort compare sorted;
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      let idx = Stdlib.min (n - 1) (Stdlib.max 0 (rank - 1)) in
      sorted.(idx)
    end

  let samples t = Growable.to_array t.samples

  let pp_summary fmt t =
    if count t = 0 then Format.fprintf fmt "(empty)"
    else
      Format.fprintf fmt "n=%d mean=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g" (count t)
        (mean t) t.mn (percentile t 50.0) (percentile t 99.0) t.mx
end

module Series = struct
  type t = {
    name : string;
    mutable times : int array;
    mutable values : float array;
    mutable size : int;
  }

  let create ?(name = "") () = { name; times = [||]; values = [||]; size = 0 }

  let add t ~time v =
    let cap = Array.length t.times in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let times = Array.make ncap 0 and values = Array.make ncap 0.0 in
      Array.blit t.times 0 times 0 t.size;
      Array.blit t.values 0 values 0 t.size;
      t.times <- times;
      t.values <- values
    end;
    t.times.(t.size) <- time;
    t.values.(t.size) <- v;
    t.size <- t.size + 1

  let name t = t.name
  let length t = t.size
  let points t = Array.init t.size (fun i -> (t.times.(i), t.values.(i)))

  let last t =
    if t.size = 0 then None else Some (t.times.(t.size - 1), t.values.(t.size - 1))

  let rate_per_sec t ~bucket =
    if bucket <= 0 then invalid_arg "Series.rate_per_sec: bucket must be positive";
    if t.size = 0 then []
    else begin
      let tbl = Hashtbl.create 64 in
      for i = 0 to t.size - 1 do
        let b = t.times.(i) / bucket in
        let cur = try Hashtbl.find tbl b with Not_found -> 0.0 in
        Hashtbl.replace tbl b (cur +. t.values.(i))
      done;
      let buckets = Hashtbl.fold (fun b v acc -> (b, v) :: acc) tbl [] in
      let buckets = List.sort (fun (a, _) (b, _) -> compare a b) buckets in
      let scale = 1e9 /. float_of_int bucket in
      List.map (fun (b, v) -> (b * bucket, v *. scale)) buckets
    end
end
