module Record = Nt_trace.Record
module Rpc = Nt_rpc.Rpc_msg
module Rm = Nt_rpc.Record_mark
module Frame = Nt_net.Frame
module Pcap = Nt_net.Pcap
module E = Nt_xdr.Encode
module Prng = Nt_util.Prng

type transport = Udp_transport | Tcp_transport

let nfs_port = 2049

type flow_state = { mutable seq : int; mutable started : bool }

type t = {
  transport : transport;
  rng : Prng.t;
  mtu : int;
  (* Packets of one record interleave in time with the next record's,
     so frames pass through the reorder window too. *)
  sorter : string Record_sorter.t;
  (* TCP sequence state, keyed by (src ip, dst ip). *)
  flows : (int * int, flow_state) Hashtbl.t;
  injector : Fault.t;
  c_written : Nt_obs.Obs.counter;
}

let create ?obs ?monitor_loss ?fault ?(seed = 77L) ?(mtu = 9000) ~transport ~writer () =
  (* The written/dropped accessors feed the conservation invariant, so
     the default registry must count: a private enabled one. *)
  let obs = match obs with Some o -> o | None -> Nt_obs.Obs.create () in
  let rng = Prng.create seed in
  let plan =
    match (fault, monitor_loss) with
    | Some plan, _ -> plan
    | None, Some p when p > 0. -> Fault.bernoulli_loss p
    | None, _ -> Fault.none
  in
  (* The injector gets its own derived stream so that enabling faults
     does not perturb the flow ISNs drawn from [rng]. *)
  let injector = Fault.create ~obs ~seed:(Prng.next_int64 (Prng.copy rng)) plan in
  let c_written =
    Nt_obs.Obs.counter obs ~help:"packets written to the capture" "pipe.packets_written"
  in
  let emit =
    Fault.apply injector ~emit:(fun time bytes ->
        Pcap.write writer ~time bytes;
        Nt_obs.Obs.inc c_written)
  in
  {
    transport;
    rng;
    mtu;
    (* The window's sorter.* counters would double the record sorter's
       on a shared registry, so it counts nowhere. *)
    sorter =
      Record_sorter.create ~obs:Nt_obs.Obs.null ~horizon:630. ~dummy:""
        (fun time frame -> emit ~time frame);
    flows = Hashtbl.create 64;
    injector;
    c_written;
  }

let client_port ip = 600 + (ip land 0x3FF)

let encode_call_msg (r : Record.t) =
  let e = E.create ~initial_size:512 () in
  let proc = Record.proc r in
  let proc_num =
    match Nt_nfs.Proc.number ~version:r.version proc with Some n -> n | None -> 0
  in
  Rpc.encode_call e
    {
      xid = r.xid;
      rpcvers = 2;
      prog = Rpc.nfs_program;
      vers = r.version;
      proc = proc_num;
      cred =
        Auth_unix { stamp = 0; machine = "client"; uid = r.uid; gid = r.gid; gids = [ r.gid ] };
      verf = Auth_null;
    };
  (if r.version = 2 then Nt_nfs.V2.encode_call e r.call else Nt_nfs.V3.encode_call e r.call);
  E.contents e

let encode_reply_msg (r : Record.t) result =
  let e = E.create ~initial_size:512 () in
  Rpc.encode_reply e { xid = r.xid; verf = Auth_null; status = Accepted Success };
  let proc = Record.proc r in
  (if r.version = 2 then Nt_nfs.V2.encode_result e ~proc result
   else Nt_nfs.V3.encode_result e ~proc result);
  E.contents e

let flow t ~src ~dst =
  match Hashtbl.find_opt t.flows (src, dst) with
  | Some f -> f
  | None ->
      let f = { seq = Prng.bits30 t.rng land 0xFFFFFF; started = false } in
      Hashtbl.add t.flows (src, dst) f;
      f

let push_udp t ~at ~src ~dst ~src_port ~dst_port msg =
  let frame =
    Frame.encode (Frame.udp ~src_ip:src ~dst_ip:dst ~src_port ~dst_port msg)
  in
  Record_sorter.push t.sorter at frame

let push_tcp t ~at ~src ~dst ~src_port ~dst_port msg =
  let f = flow t ~src ~dst in
  if not f.started then begin
    f.started <- true;
    let syn =
      Frame.encode
        (Frame.tcp ~syn:true ~src_ip:src ~dst_ip:dst ~src_port ~dst_port ~seq:f.seq "")
    in
    Record_sorter.push t.sorter (at -. 0.000001) syn;
    f.seq <- (f.seq + 1) land 0xFFFFFFFF
  end;
  let stream = Rm.frame msg in
  let mss = t.mtu - 40 in
  let n = String.length stream in
  let off = ref 0 in
  let k = ref 0 in
  while !off < n do
    let len = min mss (n - !off) in
    let segment = String.sub stream !off len in
    let frame =
      Frame.encode
        (Frame.tcp ~src_ip:src ~dst_ip:dst ~src_port ~dst_port ~seq:f.seq segment)
    in
    (* Successive segments of one message are microseconds apart. *)
    Record_sorter.push t.sorter (at +. (float_of_int !k *. 2e-6)) frame;
    f.seq <- (f.seq + len) land 0xFFFFFFFF;
    off := !off + len;
    incr k
  done

let push t (r : Record.t) =
  let src_port = client_port r.client in
  let send ~at ~src ~dst ~sp ~dp msg =
    match t.transport with
    | Udp_transport -> push_udp t ~at ~src ~dst ~src_port:sp ~dst_port:dp msg
    | Tcp_transport -> push_tcp t ~at ~src ~dst ~src_port:sp ~dst_port:dp msg
  in
  let call_msg = encode_call_msg r in
  send ~at:r.time ~src:r.client ~dst:r.server ~sp:src_port ~dp:nfs_port call_msg;
  match (r.reply_time, r.result) with
  | Some rt, Some result ->
      let reply_msg = encode_reply_msg r result in
      send ~at:rt ~src:r.server ~dst:r.client ~sp:nfs_port ~dp:src_port reply_msg
  | _ -> ()

let finish t = Record_sorter.flush t.sorter
let packets_written t = Nt_obs.Obs.value t.c_written
let packets_dropped t = (Fault.counts t.injector).dropped
let faults t = Fault.counts t.injector
