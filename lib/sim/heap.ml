(* The heap orders int triples (key, tie, slot): each element sits in
   [items.(slot)] from push to pop and never moves, so a sift compares
   and copies ints only, with no write barrier. [free.(size ..)] are the
   slots holding no element. *)
type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable ties : int array;
  mutable slots : int array;
  mutable items : 'a array;
  mutable free : int array;
  mutable size : int;
}

let create ~dummy () =
  { dummy; keys = [||]; ties = [||]; slots = [||]; items = [||]; free = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = max 16 (2 * h.size) in
  let extend a fill = Array.append a (Array.make (cap - h.size) fill) in
  h.keys <- extend h.keys 0;
  h.ties <- extend h.ties 0;
  h.slots <- extend h.slots 0;
  h.items <- extend h.items h.dummy;
  h.free <- Array.init cap Fun.id

(* Hole-based sifts: carry the moving triple and write it once at its
   final position. *)
let push h ~key ~tie x =
  if h.size = Array.length h.items then grow h;
  let keys = h.keys and ties = h.ties and slots = h.slots in
  let slot = h.free.(h.size) in
  h.items.(slot) <- x;
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = keys.(parent) in
    if key < pk || (key = pk && tie < ties.(parent)) then begin
      keys.(!i) <- pk;
      ties.(!i) <- ties.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  ties.(!i) <- tie;
  slots.(!i) <- slot

let peek h = if h.size = 0 then None else Some h.items.(h.slots.(0))

let peek_exn h =
  if h.size = 0 then invalid_arg "Heap.peek_exn: empty heap" else h.items.(h.slots.(0))

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let keys = h.keys and ties = h.ties and slots = h.slots in
  let top = slots.(0) in
  let x = h.items.(top) in
  h.items.(top) <- h.dummy;
  let n = h.size - 1 in
  h.free.(n) <- top;
  h.size <- n;
  if n > 0 then begin
    let key = keys.(n) and tie = ties.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && ties.(r) < ties.(l)))
          then r
          else l
        in
        let ck = keys.(c) in
        if ck < key || (ck = key && ties.(c) < tie) then begin
          keys.(!i) <- ck;
          ties.(!i) <- ties.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    ties.(!i) <- tie;
    slots.(!i) <- slot
  end;
  x

let pop h = if h.size = 0 then None else Some (pop_exn h)

let clear h =
  h.keys <- [||];
  h.ties <- [||];
  h.slots <- [||];
  h.items <- [||];
  h.free <- [||];
  h.size <- 0

let iter h f =
  for i = 0 to h.size - 1 do
    f h.items.(h.slots.(i))
  done
