let of_lines lines =
  let h = ref 0x3bf29ce484222325 in
  let feed_byte b = h := (!h lxor b) * 0x100000001b3 land max_int in
  List.iter
    (fun s ->
      String.iter (fun ch -> feed_byte (Char.code ch)) s;
      feed_byte 0)
    lines;
  Printf.sprintf "%016x" !h
