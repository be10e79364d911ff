include Event

type read = {
  records : record list;
  malformed : int;
  unknown : int;
  truncated : bool;
}

let read_string s =
  let results = Json.parse_lines s in
  let last = List.length results - 1 in
  let records = ref [] and malformed = ref 0 and truncated = ref false in
  let unknown = ref 0 in
  List.iteri
    (fun i r ->
      match r with
      | Ok j -> (
        match of_json j with
        | Some rec_ ->
          (match rec_.event with Unknown _ -> incr unknown | _ -> ());
          records := rec_ :: !records
        | None -> incr malformed)
      | Error _ ->
        (* a malformed final line is a truncated write (the process
           died mid-event), not a corrupt trace *)
        if i = last then truncated := true else incr malformed)
    results;
  {
    records = List.rev !records;
    malformed = !malformed;
    unknown = !unknown;
    truncated = !truncated;
  }

let read_file path =
  read_string (In_channel.with_open_bin path In_channel.input_all)
