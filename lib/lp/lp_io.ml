let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> c
      | _ -> '_')
    name

(* LP format requires names not to start with a digit or 'e'/'E'
   (which reads as a number); prefix when needed. *)
let var_name m v =
  let raw = sanitize (Model.var_name m v) in
  match raw.[0] with
  | '0' .. '9' | 'e' | 'E' | '.' -> "v_" ^ raw
  | _ -> raw
  | exception Invalid_argument _ -> Printf.sprintf "v_%d" (Model.var_index v)

let term_string m first (c, vi) =
  let v = Model.var_of_index m vi in
  let name = var_name m v in
  if first then
    if c = 1.0 then name
    else if c = -1.0 then "- " ^ name
    else Printf.sprintf "%g %s" c name
  else if c >= 0.0 then Printf.sprintf "+ %g %s" c name
  else Printf.sprintf "- %g %s" (abs_float c) name

let to_string m =
  let buf = Buffer.create 1024 in
  let dir =
    match Model.direction m with
    | Model.Minimize -> "Minimize"
    | Model.Maximize -> "Maximize"
  in
  Buffer.add_string buf (Printf.sprintf "\\ %s\n%s\n obj:" (Model.name m) dir);
  let wrote = ref false in
  for vi = 0 to Model.num_vars m - 1 do
    let v = Model.var_of_index m vi in
    let c = Model.var_obj m v in
    if c <> 0.0 then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf (term_string m (not !wrote) (c, vi));
      wrote := true
    end
  done;
  if not !wrote then Buffer.add_string buf " 0 x0_dummy";
  Buffer.add_string buf "\nSubject To\n";
  Model.iter_constrs m (fun i terms sense rhs ->
      Buffer.add_string buf (Printf.sprintf " %s:" (sanitize (Model.constr_name m i)));
      (match terms with
      | [] -> Buffer.add_string buf " 0 x0_dummy"
      | first :: rest ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (term_string m true first);
        List.iter
          (fun t ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (term_string m false t))
          rest);
      let rel =
        match sense with Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "="
      in
      Buffer.add_string buf (Printf.sprintf " %s %g\n" rel rhs));
  Buffer.add_string buf "Bounds\n";
  let binaries = ref [] and generals = ref [] in
  for vi = 0 to Model.num_vars m - 1 do
    let v = Model.var_of_index m vi in
    let name = var_name m v in
    let lb = Model.var_lb m v and ub = Model.var_ub m v in
    (match Model.var_kind m v with
    | Model.Binary -> binaries := name :: !binaries
    | Model.Integer -> generals := name :: !generals
    | Model.Continuous -> ());
    (* bounds lines; LP format default is [0, +inf) *)
    if lb = neg_infinity && ub = infinity then
      Buffer.add_string buf (Printf.sprintf " %s free\n" name)
    else if lb = neg_infinity then
      Buffer.add_string buf (Printf.sprintf " -inf <= %s <= %g\n" name ub)
    else if ub = infinity then begin
      if lb <> 0.0 then
        Buffer.add_string buf (Printf.sprintf " %s >= %g\n" name lb)
    end
    else Buffer.add_string buf (Printf.sprintf " %g <= %s <= %g\n" lb name ub)
  done;
  if !binaries <> [] then begin
    Buffer.add_string buf "Binaries\n";
    List.iter
      (fun nm -> Buffer.add_string buf (Printf.sprintf " %s\n" nm))
      (List.rev !binaries)
  end;
  if !generals <> [] then begin
    Buffer.add_string buf "Generals\n";
    List.iter
      (fun nm -> Buffer.add_string buf (Printf.sprintf " %s\n" nm))
      (List.rev !generals)
  end;
  Buffer.add_string buf "End\n";
  Buffer.contents buf
