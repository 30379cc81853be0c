module Engine = Marcel.Engine
module Time = Marcel.Time

type fluid_use = { fluid : Fluid.t; weight : float; rate_cap : float option; cls : int }

type stage = {
  label : string;
  use : fluid_use option;
  per_fragment : Time.span;
  prop : Time.span;
}

let stage ?use ?(per_fragment = 0) ?(prop = 0) label =
  { label; use; per_fragment; prop }

type fragment = { frag_len : int; on_delivered : unit -> unit }

(* One stage of a running chain: the fragments waiting for it and
   whether it holds one. A fragment reaching an idle stage starts in a
   new event at the same instant, and a fluid completion resumes the
   stage in a new event too, rather than running inline: that ordering
   among same-instant events is part of the simulated schedule
   (same-instant fluid joins in another order can round differently),
   and the goldens and pinned delivery instants depend on it. *)
type node = {
  engine : Engine.t;
  spec : stage;
  waiting : fragment Queue.t;
  mutable busy : bool;
  next : fragment -> unit;
}

let rec arrive n frag =
  if n.busy then Queue.push frag n.waiting
  else begin
    n.busy <- true;
    Engine.at n.engine (Engine.now n.engine) (fun () -> start n frag)
  end

and start n frag =
  if Stdlib.( > ) n.spec.per_fragment 0 then
    Engine.at n.engine
      (Time.add (Engine.now n.engine) n.spec.per_fragment)
      (fun () -> occupy n frag)
  else occupy n frag

and occupy n frag =
  match n.spec.use with
  | Some { fluid; weight; rate_cap; cls } ->
      Fluid.transfer_then fluid ~bytes_count:frag.frag_len ~weight ?rate_cap
        ~cls (fun () -> leave n frag)
  | None -> leave n frag

and leave n frag =
  (if Time.equal n.spec.prop 0 then n.next frag
   else
     Engine.at n.engine
       (Time.add (Engine.now n.engine) n.spec.prop)
       (fun () -> n.next frag));
  match Queue.take_opt n.waiting with
  | Some frag -> start n frag
  | None -> n.busy <- false

let chain engine stages =
  if stages = [] then invalid_arg "Pipeline.chain: no stages";
  List.fold_right
    (fun spec next ->
      arrive { engine; spec; waiting = Queue.create (); busy = false; next })
    stages
    (fun frag -> frag.on_delivered ())

let fragment_sizes ~bytes_count ~mtu =
  if bytes_count = 0 then [ 0 ]
  else begin
    let rec go remaining acc =
      if remaining <= 0 then List.rev acc
      else go (remaining - mtu) (min mtu remaining :: acc)
    in
    go bytes_count []
  end

let run engine ~stages ~bytes_count ~mtu =
  if stages = [] then invalid_arg "Pipeline.run: no stages";
  if mtu <= 0 then invalid_arg "Pipeline.run: mtu <= 0";
  if bytes_count < 0 then invalid_arg "Pipeline.run: negative size";
  (* The caller collects the fragments one by one, blocking while none
     is ready: each fragment that finds it waiting wakes it. *)
  let ready = ref 0 and waiter = ref None in
  let collect () =
    match !waiter with
    | Some wake ->
        waiter := None;
        wake ()
    | None -> incr ready
  in
  let intake = chain engine stages in
  let fragments = fragment_sizes ~bytes_count ~mtu in
  List.iter
    (fun frag_len -> intake { frag_len; on_delivered = collect })
    fragments;
  for _ = 1 to List.length fragments do
    if !ready > 0 then decr ready
    else Engine.suspend ~name:"pipeline.run" (fun wake -> waiter := Some wake)
  done
