(* Versioned, checksummed, atomically-replaced record files.

   This module owns the container only — header, body lines, trailer,
   tmp-then-rename atomicity, corruption detection. What the lines
   mean is the caller's business (the MIP engine serializes its
   branch-and-bound state through it); keeping the container generic
   is also what keeps the dependency arrow pointing the right way:
   resilience must not depend on the LP layer.

   On-disk layout (text, one record per line, no embedded newlines):

     <magic> <version>          header
     <body line> ...            caller records
     end <count> <fnv64-hex>    trailer: body line count + checksum

   The checksum is FNV-1a (64-bit) over the body lines joined with
   '\n' — it covers content and order, not the header, so a version
   bump alone is detected as a version mismatch (caller's policy)
   rather than as corruption. *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* a plain loop keeps [h] unboxed: no allocation per byte *)
let fnv1a_update h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let checksum lines =
  let h = ref fnv_offset in
  List.iteri
    (fun i line ->
      if i > 0 then h := fnv1a_update !h "\n";
      h := fnv1a_update !h line)
    lines;
  Printf.sprintf "%016Lx" !h

let valid_line s = not (String.exists (fun c -> c = '\n' || c = '\r') s)

let write ~path ~magic ~version lines =
  if not (List.for_all valid_line lines) then
    invalid_arg "Checkpoint.write: body line contains a newline";
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     (try
        output_string oc magic;
        output_char oc ' ';
        output_string oc (string_of_int version);
        output_char oc '\n';
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          lines;
        Printf.fprintf oc "end %d %s\n" (List.length lines) (checksum lines);
        close_out oc
      with e ->
        close_out_noerr oc;
        raise e)
   with Sys_error detail -> Error.io_error ~path:tmp detail);
  try Sys.rename tmp path
  with Sys_error detail -> Error.io_error ~path detail

let read_lines path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  with Sys_error detail -> Error.io_error ~path detail

let load ~path ~magic =
  let corrupt line detail = Error.parse_error ~file:path ~line detail in
  match read_lines path with
  | [] -> corrupt 1 "empty checkpoint file"
  | header :: rest -> (
      let version =
        match String.split_on_char ' ' header with
        | [ m; v ] when m = magic -> (
            match int_of_string_opt v with
            | Some v -> v
            | None -> corrupt 1 (Printf.sprintf "bad version field %S" v))
        | _ ->
            corrupt 1
              (Printf.sprintf "bad magic: expected %S, got %S" magic header)
      in
      match List.rev rest with
      | [] -> corrupt 2 "truncated checkpoint: missing trailer"
      | trailer :: body_rev -> (
          let body = List.rev body_rev in
          match String.split_on_char ' ' trailer with
          | [ "end"; count; sum ] ->
              let nbody = List.length body in
              (match int_of_string_opt count with
              | Some c when c = nbody -> ()
              | _ ->
                  corrupt (nbody + 2)
                    (Printf.sprintf
                       "truncated checkpoint: trailer records %s lines, found \
                        %d"
                       count nbody));
              let actual = checksum body in
              if not (String.equal actual sum) then
                corrupt (nbody + 2)
                  (Printf.sprintf "checksum mismatch: trailer %s, computed %s"
                     sum actual);
              (version, body)
          | _ ->
              corrupt (List.length rest + 1)
                "truncated checkpoint: missing trailer"))
