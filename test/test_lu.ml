(* Property tests for the sparse LU basis factorization (Lu), checked
   against two references that share no code with it: the explicit
   residual of the basis itself, and a small dense Gaussian elimination
   with partial pivoting written below.

   Random nonsingular bases come in two families:
   - network-like: ±1 columns of a rooted spanning tree's incidence
     matrix (unit triangular up to permutation, like the flow bases of
     the paper's PPM/PPME programs), with rows and positions shuffled;
   - mixed-scale: a sparse diagonally dominant matrix with row and
     column scalings over four orders of magnitude.

   For each basis, FTRAN, BTRAN and unit-row BTRAN (a row of B^-1, the
   dual simplex's pricing row) must solve their systems; then random
   column replacements go through the eta file and the solves are
   re-checked after every one, until [should_refactor] fires. A
   rank-deficient basis must raise [Lu.Singular].

   The base seed comes from MONPOS_PROP_SEED (default 1), as in
   test_simplex_prop. *)

module Lu = Monpos_lp.Lu
module Sparse_vec = Monpos_lp.Sparse_vec
module Prng = Monpos_util.Prng

let prop_seed =
  match Sys.getenv_opt "MONPOS_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let cases = 150

(* a basis as dense columns: [b.(r)] is the column at position [r],
   indexed by constraint row *)
type basis = float array array

let factor (b : basis) =
  let m = Array.length b in
  Lu.factor ~m ~col:(fun r f ->
      Array.iteri (fun i a -> if a <> 0.0 then f i a) b.(r))

(* shuffle rows and positions of a column set *)
let permute rng (cols : basis) : basis =
  let m = Array.length cols in
  let rows = Array.init m Fun.id and pos = Array.init m Fun.id in
  Prng.shuffle rng rows;
  Prng.shuffle rng pos;
  Array.init m (fun r ->
      let c = cols.(pos.(r)) in
      let out = Array.make m 0.0 in
      Array.iteri (fun i a -> out.(rows.(i)) <- a) c;
      out)

let network_basis rng m : basis =
  let cols =
    Array.init m (fun j ->
        let c = Array.make m 0.0 in
        c.(j) <- 1.0;
        if j > 0 then c.(Prng.int rng j) <- -1.0;
        c)
  in
  permute rng cols

let mixed_scale_basis rng m : basis =
  let scale () = 10.0 ** (Prng.float rng 4.0 -. 2.0) in
  let row_scale = Array.init m (fun _ -> scale ()) in
  let col_scale = Array.init m (fun _ -> scale ()) in
  let cols =
    Array.init m (fun j ->
        let c = Array.make m 0.0 in
        let off = ref 0.0 in
        for i = 0 to m - 1 do
          if i <> j && Prng.int rng m < 3 then begin
            let a = Prng.float rng 2.0 -. 1.0 in
            c.(i) <- a;
            off := !off +. abs_float a
          end
        done;
        (* column diagonal dominance keeps the unscaled matrix well
           conditioned; the scalings then spread the magnitudes *)
        c.(j) <- (if Prng.bool rng then 1.0 else -1.0) *. (1.0 +. !off);
        c)
  in
  permute rng
    (Array.mapi
       (fun j c -> Array.mapi (fun i a -> a *. row_scale.(i) *. col_scale.(j)) c)
       cols)

(* ---- dense oracle ------------------------------------------------- *)

(* Solve [a x = rhs] by Gaussian elimination with partial pivoting;
   [a] is row-major and is not modified. *)
let dense_solve (a : float array array) rhs =
  let m = Array.length rhs in
  let a = Array.map Array.copy a and x = Array.copy rhs in
  for k = 0 to m - 1 do
    let p = ref k in
    for i = k + 1 to m - 1 do
      if abs_float a.(i).(k) > abs_float a.(!p).(k) then p := i
    done;
    let t = a.(k) in
    a.(k) <- a.(!p);
    a.(!p) <- t;
    let t = x.(k) in
    x.(k) <- x.(!p);
    x.(!p) <- t;
    for i = k + 1 to m - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      if f <> 0.0 then begin
        for j = k to m - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      end
    done
  done;
  for k = m - 1 downto 0 do
    let acc = ref x.(k) in
    for j = k + 1 to m - 1 do
      acc := !acc -. (a.(k).(j) *. x.(j))
    done;
    x.(k) <- !acc /. a.(k).(k)
  done;
  x

(* B as a row-major matrix (rows = constraint rows, columns =
   positions) and its transpose *)
let rows_of (b : basis) =
  let m = Array.length b in
  Array.init m (fun i -> Array.init m (fun r -> b.(r).(i)))

let norm v = Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0.0 v

(* ---- checks ------------------------------------------------------- *)

let to_vec v =
  let s = Sparse_vec.create (Array.length v) in
  Array.iteri (fun i x -> if x <> 0.0 then Sparse_vec.set s i x) v;
  s

let of_vec m s = Array.init m (Sparse_vec.get s)

(* a random sparse right-hand side with at least one nonzero *)
let random_rhs rng m =
  let v = Array.make m 0.0 in
  v.(Prng.int rng m) <- Prng.float rng 4.0 -. 2.0;
  for i = 0 to m - 1 do
    if Prng.int rng 4 = 0 then v.(i) <- Prng.float rng 4.0 -. 2.0
  done;
  v

(* |M x - rhs| small relative to |M| |x| + |rhs|, and x close to the
   dense oracle's answer *)
let check_solve ~what (mat : float array array) rhs x =
  let m = Array.length rhs in
  let mat_norm =
    Array.fold_left
      (fun acc row -> Float.max acc (Array.fold_left (fun s a -> s +. abs_float a) 0.0 row))
      0.0 mat
  in
  let resid =
    norm
      (Array.init m (fun i ->
           let acc = ref (-.rhs.(i)) in
           Array.iteri (fun j a -> acc := !acc +. (a *. x.(j))) mat.(i);
           !acc))
  in
  let scale = (mat_norm *. norm x) +. norm rhs in
  if resid > 1e-9 *. scale then
    Alcotest.failf "%s: residual %g exceeds 1e-9 * %g" what resid scale;
  let oracle = dense_solve mat rhs in
  let diff = norm (Array.map2 ( -. ) x oracle) in
  if diff > 1e-7 *. (norm oracle +. 1e-300) then
    Alcotest.failf "%s: differs from the dense oracle by %g (|x| = %g)" what
      diff (norm oracle)

let check_all ~what rng lu (b : basis) =
  let m = Array.length b in
  let bm = rows_of b in
  let bt = Array.map Array.copy b in
  let into = Sparse_vec.create m in
  (* FTRAN: B x = rhs, rhs by row, x by position *)
  let rhs = random_rhs rng m in
  Lu.ftran lu ~rhs:(to_vec rhs) ~into;
  check_solve ~what:(what ^ " ftran") bm rhs (of_vec m into);
  (* BTRAN: B^T y = c, c by position, y by row *)
  let c = random_rhs rng m in
  Lu.btran lu ~rhs:(to_vec c) ~into;
  check_solve ~what:(what ^ " btran") bt c (of_vec m into);
  (* unit-row BTRAN: row r of B^-1 *)
  let r = Prng.int rng m in
  let e = Array.init m (fun i -> if i = r then 1.0 else 0.0) in
  Lu.btran lu ~rhs:(to_vec e) ~into;
  check_solve ~what:(Printf.sprintf "%s row %d of B^-1" what r) bt e
    (of_vec m into)

let random_basis rng case =
  let m = 1 + Prng.int rng 40 in
  if case mod 2 = 0 then ("network", network_basis rng m)
  else ("mixed-scale", mixed_scale_basis rng m)

let test_solves () =
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 2_750_159) + case) in
    let family, b = random_basis rng case in
    let lu = factor b in
    check_all ~what:(Printf.sprintf "case %d (%s)" case family) rng lu b
  done

(* Replace basis columns through the eta file, as the simplex does:
   alpha = B^-1 a for the entering column a, pivot at a position whose
   alpha entry is safely nonzero. *)
let test_eta_updates () =
  let fired = ref 0 in
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 3_571_429) + case) in
    let family, b = random_basis rng case in
    let m = Array.length b in
    let lu = factor b in
    let what k = Printf.sprintf "case %d (%s) after %d etas" case family k in
    let steps = ref 0 in
    let attempts = ref 0 in
    while (not (Lu.should_refactor lu)) && !attempts < 2_000 do
      incr attempts;
      let a =
        if family = "network" then begin
          (* an arc column: +1 at one row, -1 at another (or a root
             column when m = 1) *)
          let a = Array.make m 0.0 in
          let i = Prng.int rng m in
          a.(i) <- 1.0;
          if m > 1 then a.((i + 1 + Prng.int rng (m - 1)) mod m) <- -1.0;
          a
        end
        else Array.map (fun x -> x *. (10.0 ** (Prng.float rng 2.0 -. 1.0))) (random_rhs rng m)
      in
      let alpha = Sparse_vec.create m in
      Lu.ftran lu ~rhs:(to_vec a) ~into:alpha;
      let big = norm (of_vec m alpha) in
      let r = Prng.int rng m in
      (* the simplex ratio test only pivots on entries bounded away
         from zero; mimic its piv_tol relative to the column *)
      if abs_float (Sparse_vec.get alpha r) > 1e-2 *. big then begin
        Lu.append_eta lu ~r ~alpha;
        b.(r) <- a;
        incr steps;
        Alcotest.(check int) (what !steps ^ ": eta count") !steps
          (Lu.eta_count lu);
        check_all ~what:(what !steps) rng lu b
      end
    done;
    if Lu.should_refactor lu then incr fired;
    (* a fresh factorization of the updated basis agrees as well *)
    check_all ~what:(what !steps ^ " refactorized") rng (factor b) b
  done;
  Alcotest.(check int) "should_refactor fired for every basis" cases !fired

(* Rank-deficient bases: an all-zero column, a repeated column, a
   column that is an exact integer combination of two others, and a
   row no column touches. *)
let test_singular () =
  for case = 0 to 59 do
    let rng = Prng.create ((prop_seed * 5_206_837) + case) in
    let m = 3 + Prng.int rng 20 in
    let b = network_basis rng m in
    let i = Prng.int rng m in
    let j = (i + 1 + Prng.int rng (m - 1)) mod m in
    let k = (j + 1 + Prng.int rng (m - 2)) mod m in
    let k = if k = i then (k + 1) mod m else k in
    let kind = case mod 4 in
    (match kind with
    | 0 -> b.(i) <- Array.make m 0.0
    | 1 -> b.(i) <- Array.copy b.(j)
    | 2 -> b.(k) <- Array.map2 (fun x y -> x +. (2.0 *. y)) b.(i) b.(j)
    | _ ->
      let row = Prng.int rng m in
      Array.iter (fun c -> c.(row) <- 0.0) b);
    match factor b with
    | exception Lu.Singular -> ()
    | _ ->
      Alcotest.failf "case %d (kind %d, m = %d): rank-deficient basis factorized"
        case kind m
  done

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "ftran/btran vs residual and dense oracle (seed %d)"
         prop_seed)
      `Quick test_solves;
    Alcotest.test_case
      (Printf.sprintf "eta updates stay exact until refactor (seed %d)"
         prop_seed)
      `Quick test_eta_updates;
    Alcotest.test_case "rank-deficient basis raises Singular" `Quick
      test_singular;
  ]
