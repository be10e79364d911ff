(** Reader for the JSONL traces {!Trace} writes.

    The event schema and its codec are {!Event}, re-exported here in
    full so a reader needs one module: [Trace_reader.Bb_node],
    [Trace_reader.decode] and [Trace_reader.record] are
    {!Event.Bb_node}, {!Event.decode} and {!Event.record}. This module
    adds reading whole traces, line by line, under the skip-unknown
    contract {!Event} describes. *)

include module type of struct
  include Event
end

type read = {
  records : record list;  (** decoded events, in file order *)
  malformed : int;
      (** lines that were not parseable trace events (excluding a
          truncated final line) *)
  unknown : int;
      (** records that decoded as {!Event.Unknown} — events this
          reader's schema does not cover, or known events with missing
          or mistyped required fields *)
  truncated : bool;
      (** the final line failed to parse — an interrupted write *)
}

val read_string : string -> read

val read_file : string -> read
