type t = { words : int array; cap : int }

let words_for n = (n + 62) / 63

let create n =
  assert (n >= 0);
  { words = Array.make (max 1 (words_for n)) 0; cap = n }

let capacity s = s.cap

let copy s = { words = Array.copy s.words; cap = s.cap }

let check s i = assert (0 <= i && i < s.cap)

let add s i =
  check s i;
  let w = i / 63 and b = i mod 63 in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check s i;
  let w = i / 63 and b = i mod 63 in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  check s i;
  let w = i / 63 and b = i mod 63 in
  s.words.(w) land (1 lsl b) <> 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let same_cap a b = assert (a.cap = b.cap)

let union_into dst src =
  same_cap dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_into dst src =
  same_cap dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let inter_cardinal a b =
  same_cap a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let diff_cardinal a b =
  same_cap a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land lnot b.words.(i))
  done;
  !acc

let diff_meets a b c =
  same_cap a b;
  same_cap a c;
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) land lnot b.words.(!i) land c.words.(!i) = 0 do
    incr i
  done;
  !i < n

let union_diff_into dst a b =
  same_cap dst a;
  same_cap a b;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor (a.words.(i) land lnot b.words.(i))
  done

let subset a b =
  same_cap a b;
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) land lnot b.words.(!i) = 0 do
    incr i
  done;
  !i = n

let equal a b =
  same_cap a b;
  Array.for_all2 (fun x y -> x = y) a.words b.words

let iter f s =
  for i = 0 to s.cap - 1 do
    if mem s i then f i
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let fill s =
  for i = 0 to s.cap - 1 do
    add s i
  done

let clear s = Array.fill s.words 0 (Array.length s.words) 0
