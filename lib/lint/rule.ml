type severity = Info | Warn | Error

let severity_to_string = function Info -> "info" | Warn -> "warn" | Error -> "error"

type family = Protocol | Anonymization | Hygiene

let family_to_string = function
  | Protocol -> "protocol"
  | Anonymization -> "anonymization"
  | Hygiene -> "hygiene"

type t = { id : string; family : family; severity : severity; doc : string }

let rule id family severity doc = { id; family; severity; doc }

(* --- protocol --- *)

let unanswered_call =
  rule "unanswered-call" Protocol Warn
    "call has no reply: lost at the monitor or on the wire"

let duplicate_xid =
  rule "duplicate-xid" Protocol Warn
    "(client, XID) pair reused within the XID window"

let fh_use_after_remove =
  rule "fh-use-after-remove" Protocol Error
    "successful operation on a handle after its last link was removed"

let fh_before_introduction =
  rule "fh-before-introduction" Protocol Warn
    "READ/WRITE/COMMIT on a handle the trace never introduced"

let offset_beyond_size =
  rule "offset-beyond-size" Protocol Error
    "successful I/O extends past the size attested by the same reply"

let reply_before_call =
  rule "reply-before-call" Protocol Error "reply timestamped before its call"

let non_monotonic_time =
  rule "non-monotonic-time" Protocol Warn
    "call time runs backwards by more than the reorder window"

let bad_io_range =
  rule "bad-io-range" Protocol Error "negative offset or count in an I/O call"

(* --- anonymization --- *)

let raw_ip =
  rule "raw-ip" Anonymization Error
    "address outside the anonymizer's private pool"

let unmapped_id =
  rule "unmapped-id" Anonymization Error
    "UID/GID neither preserved nor in the anonymizer's mapped range"

let name_residue =
  rule "name-residue" Anonymization Error
    "name component does not parse as anonymizer output"

let dictionary_word =
  rule "dictionary-word" Anonymization Error
    "name contains a dictionary word"

(* --- capture hygiene --- *)

let loss_accounting =
  rule "loss-accounting" Hygiene Error
    "capture counters violate their conservation laws"

let capture_loss =
  rule "capture-loss" Hygiene Warn
    "capture saw loss: orphan replies, lost replies or TCP gaps"

let frame_damage =
  rule "frame-damage" Hygiene Warn
    "undecodable or corrupt frames, or RPC decode errors"

let salvage_gap =
  rule "salvage-gap" Hygiene Warn
    "pcap bytes skipped without a salvaged record or truncated-tail flag"

let all =
  [
    unanswered_call;
    duplicate_xid;
    fh_use_after_remove;
    fh_before_introduction;
    offset_beyond_size;
    reply_before_call;
    non_monotonic_time;
    bad_io_range;
    raw_ip;
    unmapped_id;
    name_residue;
    dictionary_word;
    loss_accounting;
    capture_loss;
    frame_damage;
    salvage_gap;
  ]

let find id = List.find_opt (fun r -> r.id = id) all
