module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Ip_addr = Nt_net.Ip_addr
module Obs = Nt_obs.Obs
module Footprint = Nt_obs.Footprint

type config = {
  anonymized : bool;
  anon_profile : Anon_check.profile;
  reorder_window : float;
  xid_window : float;
  max_tracked : int;
  max_findings_per_rule : int;
  enabled_only : string list option;
  disabled : string list;
}

let default_config =
  {
    anonymized = false;
    anon_profile = Anon_check.default;
    reorder_window = 0.010;
    xid_window = 120.0;
    max_tracked = 1_000_000;
    max_findings_per_rule = 100;
    enabled_only = None;
    disabled = [];
  }

let rule_enabled cfg (rule : Rule.t) =
  (match cfg.enabled_only with
  | None -> true
  | Some ids -> List.mem rule.Rule.id ids)
  && not (List.mem rule.Rule.id cfg.disabled)

type t = {
  cfg : config;
  mutable findings_rev : Finding.t list;
  counts : (string, int) Hashtbl.t;  (** rule id -> total findings *)
  mutable suppressed : int;
  mutable n_info : int;
  mutable n_warn : int;
  mutable n_error : int;
  mutable index : int;
  protocol : Protocol_check.t;
  (* Telemetry mirror: the semantic accessors below never read these,
     so the default registry is the disabled [Obs.null] and linting
     pays one dead branch per record when unobserved. *)
  c_records : Obs.counter;
  c_findings : (string, Obs.counter) Hashtbl.t;  (* rule id -> labeled counter *)
  c_suppressed : Obs.counter;
  c_evictions : Obs.counter;
  g_tracked : Obs.gauge;
  fp_pub : Footprint.pub;
}

let emit t (f : Finding.t) =
  if rule_enabled t.cfg f.Finding.rule then begin
    let id = f.Finding.rule.Rule.id in
    let n = Option.value (Hashtbl.find_opt t.counts id) ~default:0 in
    Hashtbl.replace t.counts id (n + 1);
    (match Hashtbl.find_opt t.c_findings id with Some c -> Obs.inc c | None -> ());
    if n < t.cfg.max_findings_per_rule then t.findings_rev <- f :: t.findings_rev
    else begin
      t.suppressed <- t.suppressed + 1;
      Obs.inc t.c_suppressed
    end;
    match f.Finding.rule.Rule.severity with
    | Rule.Info -> t.n_info <- t.n_info + 1
    | Rule.Warn -> t.n_warn <- t.n_warn + 1
    | Rule.Error -> t.n_error <- t.n_error + 1
  end
[@@nt.bounded "counts is keyed by the finite rule set; findings_rev is capped by max_findings_per_rule"]

let create ?(obs = Obs.null) cfg =
  let c_findings = Hashtbl.create 32 in
  List.iter
    (fun (rule : Rule.t) ->
      if rule_enabled cfg rule then
        Hashtbl.replace c_findings rule.Rule.id
          (Obs.counter obs ~labels:[ ("rule", rule.Rule.id) ] ~help:"lint findings by rule"
             "lint.findings"))
    Rule.all;
  let rec t =
    lazy
      {
        cfg;
        findings_rev = [];
        counts = Hashtbl.create 32;
        suppressed = 0;
        n_info = 0;
        n_warn = 0;
        n_error = 0;
        index = 0;
        protocol =
          Protocol_check.create
            {
              Protocol_check.reorder_window = cfg.reorder_window;
              xid_window = cfg.xid_window;
              max_tracked = cfg.max_tracked;
            }
            ~emit:(fun f -> emit (Lazy.force t) f);
        c_records = Obs.counter obs ~help:"records linted" "lint.records";
        c_findings;
        c_suppressed = Obs.counter obs ~help:"findings dropped by per-rule cap" "lint.suppressed";
        c_evictions =
          Obs.counter obs ~help:"lint state-table capacity evictions" "lint.evictions";
        g_tracked = Obs.gauge obs ~help:"live lint protocol-state entries" "lint.tracked";
        fp_pub = Footprint.publisher obs ~component:"lint";
      }
  in
  Lazy.force t

(* --- anonymization family --- *)

let path_components p = String.split_on_char '/' p

let names_of (r : Record.t) =
  let from_call =
    match r.Record.call with
    | Ops.Lookup { name; _ }
    | Ops.Create { name; _ }
    | Ops.Mkdir { name; _ }
    | Ops.Mknod { name; _ }
    | Ops.Remove { name; _ }
    | Ops.Rmdir { name; _ } ->
        [ name ]
    | Ops.Symlink { name; target; _ } -> name :: path_components target
    | Ops.Rename { from_name; to_name; _ } -> [ from_name; to_name ]
    | Ops.Link { to_name; _ } -> [ to_name ]
    | _ -> []
  in
  let from_result =
    match r.Record.result with
    | Some (Ok (Ops.R_readlink target)) -> path_components target
    | Some (Ok (Ops.R_readdir { entries; _ })) ->
        List.map (fun (e : Ops.dir_entry) -> e.Ops.entry_name) entries
    | _ -> []
  in
  from_call @ from_result

let fattrs_of (r : Record.t) =
  match r.Record.result with
  | Some (Ok (Ops.R_lookup { obj; dir; _ })) -> List.filter_map Fun.id [ obj; dir ]
  | _ -> Option.to_list (Record.post_fattr r)

let check_anon t ~index ~time (r : Record.t) =
  let p = t.cfg.anon_profile in
  let fire rule fmt = Printf.ksprintf (fun d -> emit t (Finding.v rule ~index ~time d)) fmt in
  List.iter
    (fun (role, addr) ->
      if not (Anon_check.check_ip addr) then
        fire Rule.raw_ip "%s address %s outside the 10/8 pool" role (Ip_addr.to_string addr))
    [ ("client", r.Record.client); ("server", r.Record.server) ];
  List.iter
    (fun (role, kind, v) ->
      let ok = match kind with `Uid -> Anon_check.check_uid p v | `Gid -> Anon_check.check_gid p v in
      if not ok then fire Rule.unmapped_id "%s %d neither preserved nor mapped" role v)
    ([ ("uid", `Uid, r.Record.uid); ("gid", `Gid, r.Record.gid) ]
    @ List.concat_map
        (fun (a : Types.fattr) -> [ ("attr uid", `Uid, a.Types.uid); ("attr gid", `Gid, a.Types.gid) ])
        (fattrs_of r));
  List.iter
    (fun name ->
      match Anon_check.check_name p name with
      | Anon_check.Name_ok -> ()
      | Anon_check.Dictionary w -> fire Rule.dictionary_word "%S contains %S" name w
      | Anon_check.Residue why -> fire Rule.name_residue "%S: %s" name why)
    (names_of r)

let observe t r =
  let index = t.index in
  t.index <- index + 1;
  Obs.inc t.c_records;
  Protocol_check.observe t.protocol ~index r;
  if t.cfg.anonymized then check_anon t ~index ~time:r.Record.time r

let observe_stats t stats = Hygiene_check.check ~emit:(emit t) stats

let run ?obs ?stats cfg records =
  let t = create ?obs cfg in
  Seq.iter (observe t) records;
  Option.iter (observe_stats t) stats;
  t

(* Reading results implies the stream is over: deferred protocol
   suspects still waiting out their reorder window get judged now.
   Also the sync point for state-size telemetry (delta against the
   counter's own value, so repeated settles don't double-count). *)
let footprint t =
  let tracked = Protocol_check.tracked t.protocol in
  let kept = Hashtbl.fold (fun _ n acc -> acc + n) t.counts 0 - t.suppressed in
  let kept = if kept < 0 then 0 else kept in
  Footprint.v ~cards:(tracked + kept) ~words:(32 + (tracked * 12) + (kept * 24))

let settle t =
  Protocol_check.finalize t.protocol;
  Obs.set t.g_tracked (float_of_int (Protocol_check.tracked t.protocol));
  Obs.add t.c_evictions (Protocol_check.evictions t.protocol - Obs.value t.c_evictions);
  Footprint.set t.fp_pub (footprint t)

let findings t =
  settle t;
  List.stable_sort
    (fun (a : Finding.t) (b : Finding.t) -> compare a.Finding.index b.Finding.index)
    (List.rev t.findings_rev)

let finding_count t (rule : Rule.t) =
  settle t;
  Option.value (Hashtbl.find_opt t.counts rule.Rule.id) ~default:0

let suppressed t =
  settle t;
  t.suppressed

let severity_count t sev =
  settle t;
  match sev with
  | Rule.Info -> t.n_info
  | Rule.Warn -> t.n_warn
  | Rule.Error -> t.n_error

let records_seen t = t.index
let tracked t = Protocol_check.tracked t.protocol
