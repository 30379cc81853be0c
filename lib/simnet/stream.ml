(* Interior fragments carry the shared [no_callback] instead of an
   [option]: one fewer allocation per fragment on the hot path. *)
let no_callback () = ()

type t = { mtu : int; intake : Pipeline.fragment -> unit }

(* The trailing cost-free stage is the delivery point: a fragment that
   finds it idle is delivered in a new event at its arrival instant, and
   fragments arriving while one is pending are delivered in that same
   event, in order. *)
let create engine ~stages ~mtu =
  if stages = [] then invalid_arg "Stream.create: no stages";
  if mtu <= 0 then invalid_arg "Stream.create: mtu <= 0";
  { mtu; intake = Pipeline.chain engine (stages @ [ Pipeline.stage "deliver" ]) }

let push t ~bytes_count ~on_delivered =
  if bytes_count < 0 then invalid_arg "Stream.push: negative size";
  let rec go remaining =
    if remaining <= t.mtu then t.intake { Pipeline.frag_len = remaining; on_delivered }
    else begin
      t.intake { Pipeline.frag_len = t.mtu; on_delivered = no_callback };
      go (remaining - t.mtu)
    end
  in
  go bytes_count
