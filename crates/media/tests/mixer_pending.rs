//! Regression tests for the mixer's `pending` slot map: deregistering an
//! input mid-sequence used to strand its partial slots forever, and a
//! silent input let the map grow one slot per frame without bound.

use ace_core::prelude::*;
use ace_media::services::AudioMixer;
use ace_media::Frame;
use ace_security::keys::KeyPair;

fn spawn_mixer(port: u16) -> (SimNet, ace_core::DaemonHandle, ServiceClient) {
    let net = SimNet::new();
    net.add_host("av");
    let daemon = Daemon::spawn(
        &net,
        DaemonConfig::new("mixer", "Service.Media.Mixer", "hawk", "av", port),
        Box::new(AudioMixer::new("out")),
    )
    .unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let client = ServiceClient::connect(&net, &"av".into(), daemon.addr().clone(), &me).unwrap();
    (net, daemon, client)
}

fn push(client: &mut ServiceClient, stream: &str, seq: i64) -> CmdLine {
    let frame = Frame {
        stream: stream.into(),
        seq,
        data: vec![0, 1],
    };
    client
        .call(&frame.to_cmd())
        .unwrap_or_else(|e| panic!("push {stream}/{seq} failed at the link level: {e}"))
}

fn pending(client: &mut ServiceClient) -> (i64, i64, i64) {
    let stats = CmdLine::new("aceStats").arg("prefix", "mixer.");
    let gauges = StatsReport::from_cmdline(&client.call(&stats).unwrap()).gauges;
    (
        gauges["mixer.pending"],
        gauges["mixer.mixed"],
        gauges["mixer.droppedSlots"],
    )
}

/// Slots buffered while a now-departed input was registered must not leak:
/// `removeInput` reconciles `pending` and emits what just became complete.
#[test]
fn remove_input_reconciles_pending_slots() {
    let (_net, daemon, mut client) = spawn_mixer(4500);
    for s in ["a", "b"] {
        client
            .call_ok(&CmdLine::new("addInput").arg("stream", s))
            .unwrap();
    }
    // Input `b` goes silent: 10 slots each hold only `a`'s contribution.
    for seq in 0..10 {
        push(&mut client, "a", seq);
    }
    let (pend, mixed, _) = pending(&mut client);
    assert_eq!((pend, mixed), (10, 0), "nothing complete while b is silent");

    // Deregistering `b` must both unblock the 10 buffered slots (they are
    // now complete with `a` alone) and strip `b` from the input set.
    client
        .call_ok(&CmdLine::new("removeInput").arg("stream", "b"))
        .unwrap();
    let (pend, mixed, _) = pending(&mut client);
    assert_eq!(pend, 0, "partial slots stranded after removeInput");
    assert_eq!(mixed, 10, "newly-complete slots were not emitted");

    // And the map stays clean for subsequent single-input traffic.
    push(&mut client, "a", 10);
    let (pend, mixed, _) = pending(&mut client);
    assert_eq!((pend, mixed), (0, 11));
    daemon.shutdown();
}

/// A slot holding only the departed stream's contribution is dropped, not
/// kept as an empty husk that would complete instantly with zero parts.
#[test]
fn remove_input_drops_slots_owned_by_departed_stream() {
    let (_net, daemon, mut client) = spawn_mixer(4501);
    for s in ["a", "b"] {
        client
            .call_ok(&CmdLine::new("addInput").arg("stream", s))
            .unwrap();
    }
    push(&mut client, "b", 0);
    client
        .call_ok(&CmdLine::new("removeInput").arg("stream", "b"))
        .unwrap();
    let (pend, mixed, _) = pending(&mut client);
    assert_eq!((pend, mixed), (0, 0), "b-only slot should vanish, not mix");
    daemon.shutdown();
}

/// A silent input must not let `pending` grow without bound: the map stays
/// within its cap and the evictions are counted, never silent.
#[test]
fn silent_input_keeps_pending_bounded() {
    let (_net, daemon, mut client) = spawn_mixer(4502);
    for s in ["live", "silent"] {
        client
            .call_ok(&CmdLine::new("addInput").arg("stream", s))
            .unwrap();
    }
    const FRAMES: i64 = 200;
    for seq in 0..FRAMES {
        push(&mut client, "live", seq);
    }
    let (pend, mixed, dropped) = pending(&mut client);
    assert!(pend <= 64, "pending grew without bound: {pend}");
    assert_eq!(mixed, 0);
    assert!(
        dropped >= FRAMES - 64,
        "evictions not accounted: dropped={dropped}"
    );
    // The retained slots are the newest ones: a late arrival on the silent
    // stream still completes the most recent sequence number.
    push(&mut client, "silent", FRAMES - 1);
    let (_, mixed, _) = pending(&mut client);
    assert_eq!(mixed, 1, "newest slot was evicted instead of the oldest");
    daemon.shutdown();
}

/// Frames older than everything buffered are refused while at the cap —
/// accepting them would evict newer (more completable) work.
#[test]
fn at_cap_stale_frame_is_refused_not_swapped_in() {
    let (_net, daemon, mut client) = spawn_mixer(4503);
    for s in ["live", "silent"] {
        client
            .call_ok(&CmdLine::new("addInput").arg("stream", s))
            .unwrap();
    }
    // Fill to the cap with seqs 100..164.
    for seq in 100..164 {
        push(&mut client, "live", seq);
    }
    let (pend, _, dropped_before) = pending(&mut client);
    assert_eq!(pend, 64);
    // A frame older than every buffered slot is dropped on arrival.
    let reply = push(&mut client, "live", 1);
    assert_eq!(reply.get_int("delivered"), Some(0));
    let (pend, _, dropped) = pending(&mut client);
    assert_eq!(pend, 64);
    assert_eq!(dropped, dropped_before + 1);
    daemon.shutdown();
}
