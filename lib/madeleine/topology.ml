(* Versioned live topology: an epoch-numbered immutable snapshot of the
   rank set, with a designated coordinator. The session layer holds the
   current snapshot and swaps it atomically on join/drain; everything
   downstream (routing, sentinels, gateway pools) reads the snapshot it
   was handed, never a mutable table, so a reconfiguration is a single
   pointer swap followed by a route recomputation.

   Epochs are strictly increasing: every membership change produces a
   fresh snapshot with [epoch + 1]. Two snapshots are comparable with
   {!diff}, which is what the vchannel uses to re-emit only the flows
   whose routes could actually have changed. *)

type t = { epoch : int; ranks : int list; coordinator : int }
type change = { joined : int list; departed : int list }

let sort_uniq = List.sort_uniq compare

let make ?(epoch = 0) ~coordinator ranks =
  if epoch < 0 then invalid_arg "Topology.make: negative epoch";
  let ranks = sort_uniq ranks in
  if ranks = [] then invalid_arg "Topology.make: empty rank set";
  if not (List.mem coordinator ranks) then
    invalid_arg
      (Printf.sprintf "Topology.make: coordinator %d is not a member"
         coordinator);
  { epoch; ranks; coordinator }

let epoch t = t.epoch
let ranks t = t.ranks
let coordinator t = t.coordinator
let mem t rank = List.mem rank t.ranks

let join t rank =
  if mem t rank then
    invalid_arg (Printf.sprintf "Topology.join: rank %d is already a member" rank);
  { t with epoch = t.epoch + 1; ranks = sort_uniq (rank :: t.ranks) }

let drain t rank =
  if not (mem t rank) then
    invalid_arg (Printf.sprintf "Topology.drain: rank %d is not a member" rank);
  if rank = t.coordinator then
    invalid_arg
      (Printf.sprintf "Topology.drain: rank %d is the coordinator" rank);
  { t with epoch = t.epoch + 1; ranks = List.filter (( <> ) rank) t.ranks }

let with_coordinator t rank =
  if not (mem t rank) then
    invalid_arg
      (Printf.sprintf "Topology.with_coordinator: rank %d is not a member"
         rank);
  if rank = t.coordinator then t
  else { t with epoch = t.epoch + 1; coordinator = rank }

let diff a b =
  {
    joined = List.filter (fun r -> not (mem a r)) b.ranks;
    departed = List.filter (fun r -> not (mem b r)) a.ranks;
  }

let pp ppf t =
  Format.fprintf ppf "epoch %d: {%s} coord %d" t.epoch
    (String.concat "," (List.map string_of_int t.ranks))
    t.coordinator
