type t = {
  v : float array;
  idx : int array; (* first [n] entries are the pattern *)
  mutable n : int;
  mark : Bytes.t; (* membership flag per position *)
}

let create dim =
  {
    v = Array.make (max dim 1) 0.0;
    idx = Array.make (max dim 1) 0;
    n = 0;
    mark = Bytes.make (max dim 1) '\000';
  }

let dim t = Array.length t.v

let clear t =
  for k = 0 to t.n - 1 do
    let i = t.idx.(k) in
    t.v.(i) <- 0.0;
    Bytes.unsafe_set t.mark i '\000'
  done;
  t.n <- 0

let touch t i =
  if Bytes.unsafe_get t.mark i = '\000' then begin
    Bytes.unsafe_set t.mark i '\001';
    (* idx is sized to the dimension and positions are unique, so the
       pattern can never overflow *)
    t.idx.(t.n) <- i;
    t.n <- t.n + 1
  end

let set t i x =
  touch t i;
  t.v.(i) <- x

let get t i = t.v.(i)

let raw t = t.v

let pattern t = t.idx

let nnz t = t.n
