type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy g = { state = g.state }

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let int g n =
  assert (n > 0);
  let mask = Int64.shift_right_logical (bits64 g) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int n))

let float g x =
  assert (x > 0.);
  (* 53 uniform bits mapped to [0, 1). *)
  let u = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  u /. 9007199254740992.0 *. x

let bool g = Int64.logand (bits64 g) 1L = 1L

let range g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let pareto g ~alpha ~xmin =
  assert (alpha > 0. && xmin > 0.);
  let u = 1.0 -. float g 1.0 in
  xmin /. (u ** (1.0 /. alpha))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let sample_without_replacement g m n =
  assert (0 <= m && m <= n);
  (* Floyd's algorithm keeps the draw O(m) in expectation. *)
  let module IS = Set.Make (Int) in
  let chosen = ref IS.empty in
  for j = n - m to n - 1 do
    let r = int g (j + 1) in
    if IS.mem r !chosen then chosen := IS.add j !chosen
    else chosen := IS.add r !chosen
  done;
  IS.elements !chosen
