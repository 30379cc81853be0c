(* Tests for the phi-accrual failure detector: suspicion transitions on
   a flapped link, crash detection without a fabric scope, degradation
   and recovery on a lossy link, activity-gated quiescence, no
   suspicion from parked time, and reproducibility of a seeded
   timeline. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Faults = Simnet.Faults
module Sentinel = Madeleine.Sentinel

let world ?(seed = 5L) () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed in
  Fabric.set_faults fabric faults;
  for i = 0 to 1 do
    let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
    Fabric.attach fabric n
  done;
  (engine, faults)

(* The sentinel is activity-gated, so a test must stand in for the
   channel traffic that normally keeps it probing. *)
let drive engine s ~until_us =
  Engine.spawn engine ~name:"drive" (fun () ->
      let deadline = Time.add Time.zero (Time.us until_us) in
      while Time.( < ) (Engine.now engine) deadline do
        Sentinel.touch s;
        Engine.sleep (Time.us 400.0)
      done)

let saw tl from to_ =
  List.exists
    (fun e -> e.Sentinel.ev_from = from && e.Sentinel.ev_to = to_)
    tl

let test_flap_phi_transitions () =
  let engine, faults = world () in
  let s = Sentinel.create engine faults ~me:0 ~peers:[ 1 ] ~fabric:"eth" () in
  Sentinel.start s;
  (* Down for 4 ms starting at 3 ms: long enough for phi to climb
     through both thresholds (mean inter-arrival ~500 us, so Degraded
     needs ~1.2 ms of silence and Down ~2.3 ms). *)
  Faults.flap_link faults ~fabric:"eth" ~node:1
    ~at:(Time.add Time.zero (Time.us 3_000.0))
    ~duration:(Time.us 4_000.0);
  drive engine s ~until_us:12_000.0;
  Engine.run engine;
  let tl = Sentinel.timeline s in
  Alcotest.(check bool) "Up -> Degraded" true (saw tl Sentinel.Up Sentinel.Degraded);
  Alcotest.(check bool) "reached Down" true
    (List.exists (fun e -> e.Sentinel.ev_to = Sentinel.Down) tl);
  Alcotest.(check bool) "snapped back Up after the flap" true
    (List.exists (fun e -> e.Sentinel.ev_to = Sentinel.Up) tl);
  Alcotest.(check bool) "final verdict Up" true (Sentinel.state s 1 = Sentinel.Up);
  Alcotest.(check (list int)) "nobody suspected at the end" [] (Sentinel.suspected s);
  Alcotest.(check bool) "probes were sent" true (Sentinel.probes s > 0);
  (* Transitions record the suspicion level that caused them. *)
  List.iter
    (fun e ->
      if e.Sentinel.ev_to = Sentinel.Down then
        Alcotest.(check bool) "Down carries phi >= 2" true (e.Sentinel.ev_phi >= 2.0))
    tl

let test_crash_down_without_fabric () =
  let engine, faults = world () in
  (* No [fabric] scope: only node liveness is probed. *)
  let s = Sentinel.create engine faults ~me:0 ~peers:[ 1 ] () in
  Sentinel.start s;
  let transitions = ref [] in
  Sentinel.on_transition s (fun peer from to_ ->
      transitions := (peer, from, to_) :: !transitions);
  Engine.spawn engine ~name:"killer" (fun () ->
      Engine.sleep (Time.us 2_000.0);
      Faults.crash_now faults ~node:1 ());
  drive engine s ~until_us:8_000.0;
  Engine.run engine;
  Alcotest.(check bool) "peer is Down" true (Sentinel.state s 1 = Sentinel.Down);
  Alcotest.(check (list int)) "peer is suspected" [ 1 ] (Sentinel.suspected s);
  Alcotest.(check bool) "callback saw the Down transition" true
    (List.exists (fun (p, _, to_) -> p = 1 && to_ = Sentinel.Down) !transitions);
  Alcotest.(check bool) "phi stays high on a dead peer" true
    (Sentinel.phi s 1 >= 2.0)

let test_lossy_link_degrades_then_recovers () =
  let engine, faults = world ~seed:23L () in
  let s = Sentinel.create engine faults ~me:0 ~peers:[ 1 ] ~fabric:"eth" () in
  Sentinel.start s;
  Faults.set_drop faults ~fabric:"eth" ~node:1 ~rate:0.7;
  Engine.spawn engine ~name:"heal" (fun () ->
      Engine.sleep (Time.us 20_000.0);
      Faults.set_drop faults ~fabric:"eth" ~node:1 ~rate:0.0);
  drive engine s ~until_us:26_000.0;
  Engine.run engine;
  let tl = Sentinel.timeline s in
  Alcotest.(check bool) "loss pushed the peer out of Up" true
    (List.exists (fun e -> e.Sentinel.ev_to <> Sentinel.Up) tl);
  Alcotest.(check bool) "an arrival snapped it back" true
    (List.exists (fun e -> e.Sentinel.ev_to = Sentinel.Up) tl);
  Alcotest.(check bool) "healed link ends Up" true
    (Sentinel.state s 1 = Sentinel.Up)

let test_activity_gated_quiescence () =
  let engine, faults = world () in
  let s = Sentinel.create engine faults ~me:0 ~peers:[ 1 ] ~fabric:"eth" () in
  Sentinel.start s;
  Engine.spawn engine ~name:"burst" (fun () ->
      Sentinel.touch s;
      Engine.sleep (Time.us 1_000.0);
      Sentinel.touch s);
  (* The daemon must park once [grace] expires, or this run would never
     terminate. *)
  Engine.run engine;
  Alcotest.(check bool) "probed while touched" true (Sentinel.probes s > 0);
  Alcotest.(check bool) "wound down shortly after the last touch" true
    (Time.to_us (Engine.now engine) < 10_000.0);
  Alcotest.(check (list int)) "quiet peer never suspected" []
    (Sentinel.suspected s)

(* Parked time is not silence. The daemon parks once [grace] passes
   without a touch; when traffic wakes it, the silence clock restarts,
   so a live peer whose first heartbeat after the park is lost is not
   condemned for the whole idle gap. *)
let test_park_is_not_silence () =
  let engine, faults = world () in
  let s = Sentinel.create engine faults ~me:0 ~peers:[ 1 ] ~fabric:"eth" () in
  Sentinel.start s;
  (* Traffic until 3 ms seeds the arrival clock; the daemon parks about
     2 ms (one default grace) later and stays parked until 40 ms, more
     than 10 grace windows. *)
  drive engine s ~until_us:3_000.0;
  let wake_us = 40_000.0 in
  (* The link is down across the wake instant: the first heartbeat after
     waking is dropped, the next one gets through. *)
  Faults.flap_link faults ~fabric:"eth" ~node:1
    ~at:(Time.add Time.zero (Time.us (wake_us -. 100.0)))
    ~duration:(Time.us 200.0);
  let lost_before_wake = ref (-1) in
  Engine.spawn engine ~name:"wake" (fun () ->
      Engine.sleep (Time.us wake_us);
      lost_before_wake := (Faults.stats faults).Faults.heartbeats_lost;
      Sentinel.touch s);
  Engine.run engine;
  Alcotest.(check int) "no heartbeat lost before the park" 0 !lost_before_wake;
  Alcotest.(check int) "first heartbeat after waking dropped" 1
    (Faults.stats faults).Faults.heartbeats_lost;
  Alcotest.(check bool) "live peer never Down" false
    (List.exists
       (fun e -> e.Sentinel.ev_to = Sentinel.Down)
       (Sentinel.timeline s));
  Alcotest.(check bool) "final verdict Up" true
    (Sentinel.state s 1 = Sentinel.Up)

let test_seeded_timeline_reproducible () =
  let run () =
    let engine, faults = world ~seed:23L () in
    let s = Sentinel.create engine faults ~me:0 ~peers:[ 1 ] ~fabric:"eth" () in
    Sentinel.start s;
    Faults.set_drop faults ~fabric:"eth" ~node:1 ~rate:0.5;
    drive engine s ~until_us:15_000.0;
    Engine.run engine;
    (Sentinel.probes s, Sentinel.timeline s)
  in
  let p1, t1 = run () and p2, t2 = run () in
  Alcotest.(check int) "same probe count" p1 p2;
  Alcotest.(check bool) "same seed, identical timeline" true (t1 = t2)

(* Elastic membership must not leak detector state: forgetting a
   drained rank drops its EMA, arrival clock, verdict and overload flag,
   and learning it back starts from scratch. *)
let test_forget_drops_peer_state () =
  let engine, faults = world () in
  let s = Sentinel.create engine faults ~me:0 ~peers:[ 1 ] ~fabric:"eth" () in
  Sentinel.start s;
  (* Crash the peer so it accumulates a real verdict worth leaking. *)
  Engine.spawn engine ~name:"killer" (fun () ->
      Engine.sleep (Time.us 2_000.0);
      Faults.crash_now faults ~node:1 ());
  drive engine s ~until_us:8_000.0;
  Engine.run engine;
  Alcotest.(check bool) "peer Down before forget" true
    (Sentinel.state s 1 = Sentinel.Down);
  Sentinel.set_overloaded s ~peer:1 true;
  Alcotest.(check (list int)) "watched before forget" [ 1 ]
    (Sentinel.watched s);
  Sentinel.forget s 1;
  (* Every per-rank trace is gone: never-probed peers report Up, are
     unsuspected, and the watch list is empty. *)
  Alcotest.(check (list int)) "watched after forget" [] (Sentinel.watched s);
  Alcotest.(check (list int)) "suspected after forget" []
    (Sentinel.suspected s);
  Alcotest.(check bool) "verdict reset to Up" true
    (Sentinel.state s 1 = Sentinel.Up);
  Alcotest.(check bool) "phi reset" true (Sentinel.phi s 1 = 0.0);
  (* A stale overload report on a forgotten peer must be ignored. *)
  Sentinel.set_overloaded s ~peer:1 true;
  Alcotest.(check bool) "overload report on unknown peer ignored" true
    (Sentinel.state s 1 = Sentinel.Up);
  (* Forgetting twice is a no-op; learning starts a fresh detector. *)
  Sentinel.forget s 1;
  Sentinel.learn s 1;
  Alcotest.(check (list int)) "learned back" [ 1 ] (Sentinel.watched s);
  Alcotest.(check bool) "fresh state is Up" true
    (Sentinel.state s 1 = Sentinel.Up);
  (* [me] never becomes a peer. *)
  Sentinel.learn s 0;
  Alcotest.(check (list int)) "me not learnable" [ 1 ] (Sentinel.watched s)

(* Stale-ballot hygiene for quorum elections: one countable grant per
   term, ballots voided by the voter's crash-epoch restart or by
   forgetting the voter, and a restart clearing the rank's own grant so
   it may vote afresh — but never twice in the same term. *)
let test_election_ballot_hygiene () =
  let engine, faults = world () in
  let s = Sentinel.create engine faults ~me:0 ~peers:[ 1; 2 ] () in
  (* One grant per term, monotonic. *)
  Alcotest.(check bool) "grant term 3" true (Sentinel.grant_vote s ~term:3);
  Alcotest.(check bool) "no second grant in term 3" false
    (Sentinel.grant_vote s ~term:3);
  Alcotest.(check bool) "no grant for an older term" false
    (Sentinel.grant_vote s ~term:2);
  Alcotest.(check bool) "later term grants" true (Sentinel.grant_vote s ~term:4);
  Alcotest.(check int) "voted_term tracks the highest grant" 4
    (Sentinel.voted_term s);
  (* Ballots count only while the voter's crash epoch is unchanged. *)
  Sentinel.record_ballot s ~voter:1 ~term:4
    ~voter_epoch:(Faults.epoch faults 1);
  Sentinel.record_ballot s ~voter:2 ~term:4
    ~voter_epoch:(Faults.epoch faults 2);
  Alcotest.(check (list int)) "both ballots countable" [ 1; 2 ]
    (Sentinel.ballots s ~term:4);
  Alcotest.(check (list int)) "no ballots for another term" []
    (Sentinel.ballots s ~term:5);
  Engine.spawn engine ~name:"restart" (fun () ->
      Faults.crash_now faults ~node:1 ~restart_after:(Time.us 100.0) ());
  Engine.run engine;
  Alcotest.(check (list int))
    "restarted voter's ballot silently stops counting" [ 2 ]
    (Sentinel.ballots s ~term:4);
  (* Forgetting a voter (drain) voids its recorded ballot too. *)
  Sentinel.forget s 2;
  Alcotest.(check (list int)) "forgotten voter's ballot voided" []
    (Sentinel.ballots s ~term:4);
  (* A crash-epoch restart of this rank clears its own grant — it may
     vote afresh, but still at most once per term. *)
  Sentinel.reset_election s;
  Alcotest.(check int) "grant cleared on restart" 0 (Sentinel.voted_term s);
  Alcotest.(check bool) "may vote again after restart" true
    (Sentinel.grant_vote s ~term:4);
  Alcotest.(check bool) "still one grant per term" false
    (Sentinel.grant_vote s ~term:4)

let () =
  Alcotest.run "sentinel"
    [
      ( "phi-accrual",
        [
          Alcotest.test_case "flap: Up/Degraded/Down/Up" `Quick
            test_flap_phi_transitions;
          Alcotest.test_case "crash detected without fabric" `Quick
            test_crash_down_without_fabric;
          Alcotest.test_case "lossy link degrades, recovers" `Quick
            test_lossy_link_degrades_then_recovers;
          Alcotest.test_case "activity-gated wind-down" `Quick
            test_activity_gated_quiescence;
          Alcotest.test_case "parked time is not silence" `Quick
            test_park_is_not_silence;
          Alcotest.test_case "seeded timeline reproducible" `Quick
            test_seeded_timeline_reproducible;
          Alcotest.test_case "forget drops per-rank state" `Quick
            test_forget_drops_peer_state;
        ] );
      ( "election",
        [
          Alcotest.test_case "stale-ballot hygiene" `Quick
            test_election_ballot_hygiene;
        ] );
    ]
