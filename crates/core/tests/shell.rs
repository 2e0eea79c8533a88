//! The daemon shell's reply contract, driven over raw [`SecureLink`]s so
//! the test — not a client library — decides what is on the wire and when
//! it is read.
//!
//! Interleavings are decided by a latch, never by a sleep: the `block` verb
//! parks the daemon task inside its handler until the test releases it, so
//! whatever the test sends meanwhile is provably buffered behind it.  Every
//! session is established *before* the latch is held (a handshake needs the
//! task to poll).

use ace_core::prelude::*;
use ace_core::SecureLink;
use ace_security::keys::KeyPair;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const REPLY: Duration = Duration::from_secs(5);

/// `echo text=…` answers with its text; `block` holds the handler until the
/// test releases the latch (bounded, so a failing test cannot wedge).  Every
/// `echo` that runs leaves its text in `ran` — a cast's only trace.
struct Probe {
    entered: Sender<()>,
    release: Receiver<()>,
    ran: Arc<Mutex<Vec<String>>>,
}

impl ServiceBehavior for Probe {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("echo", "echo back").required("text", ArgType::Str, "payload"))
            .with(CmdSpec::new("block", "hold the handler until released"))
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "echo" => {
                let text = cmd.get_text("text").unwrap_or("").to_string();
                self.ran.lock().unwrap().push(text.clone());
                Reply::ok_with(|c| c.arg("text", text))
            }
            _ => {
                let _ = self.entered.send(());
                let _ = self.release.recv_timeout(Duration::from_secs(10));
                Reply::ok()
            }
        }
    }
}

/// One daemon on a private two-worker pool.
struct Rig {
    net: SimNet,
    pool: Runtime,
    daemon: DaemonHandle,
    entered: Receiver<()>,
    release: Sender<()>,
    ran: Arc<Mutex<Vec<String>>>,
    me: KeyPair,
}

fn rig() -> Rig {
    rig_admitting(AdmissionConfig::default())
}

fn rig_admitting(admission: AdmissionConfig) -> Rig {
    let net = SimNet::new();
    net.add_host("srv");
    net.add_host("cli");
    let pool = Runtime::new(2);
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let ran = Arc::new(Mutex::new(Vec::new()));
    let daemon = Daemon::spawn(
        &net,
        DaemonConfig::new("probe", "Service.Probe", "lab", "srv", 7100)
            .with_admission(admission)
            .with_runtime_pool(pool.clone()),
        Box::new(Probe {
            entered: entered_tx,
            release: release_rx,
            ran: Arc::clone(&ran),
        }),
    )
    .unwrap();
    Rig {
        net,
        pool,
        daemon,
        entered,
        release,
        ran,
        me: KeyPair::generate(&mut rand::thread_rng()),
    }
}

impl Rig {
    /// An established session (handshake done, one round trip proven).
    fn session(&self) -> SecureLink {
        let conn = self
            .net
            .connect(&"cli".into(), self.daemon.addr().clone())
            .unwrap();
        let mut link = SecureLink::connect(conn, &self.me).unwrap();
        link.send_cmd(&CmdLine::new("ping")).unwrap();
        answer(&mut link).expect("ping");
        link
    }

    /// Park the daemon task inside `block`, sent on `link`.
    fn hold(&self, link: &mut SecureLink) {
        link.send_cmd(&CmdLine::new("block")).unwrap();
        self.entered
            .recv_timeout(REPLY)
            .expect("block verb never ran");
    }

    fn release(&self) {
        self.release.send(()).unwrap();
    }

    fn finish(self) {
        drop(self.daemon);
        self.pool.shutdown();
    }
}

fn ace_upgrade(phase: &str) -> CmdLine {
    CmdLine::new("aceUpgrade").arg("phase", Value::Word(phase.into()))
}

fn echo(text: &str) -> CmdLine {
    CmdLine::new("echo").arg("text", Value::Str(text.to_string()))
}

/// The next reply on `link`: its result command, or its error code.
fn answer(link: &mut SecureLink) -> Result<CmdLine, ErrorCode> {
    let reply = link.recv_cmd(REPLY).expect("a reply");
    Reply::from_cmdline(&reply)
        .into_result()
        .map_err(|(code, _)| code)
}

fn text_of(reply: Result<CmdLine, ErrorCode>) -> String {
    reply
        .expect("an ok reply")
        .get_text("text")
        .expect("echoed text")
        .to_string()
}

#[test]
fn back_to_back_frames_are_answered_once_each_in_order() {
    let rig = rig();
    let mut link = rig.session();
    const N: usize = 100;
    for i in 0..N {
        link.send_cmd(&echo(&format!("m{i}"))).unwrap();
    }
    for i in 0..N {
        assert_eq!(text_of(answer(&mut link)), format!("m{i}"));
    }
    assert!(
        link.recv_cmd(Duration::from_millis(100)).is_err(),
        "more replies than frames"
    );
    rig.finish();
}

#[test]
fn refusals_are_answered_inline_in_order_and_the_session_lives_on() {
    let rig = rig();
    let mut link = rig.session();

    // A word holding a space renders to text the parser must refuse.
    let malformed = CmdLine::new("echo").arg("text", Value::Word("not a word".into()));
    assert!(CmdLine::parse_frame(&malformed.to_frame()).is_err());
    let invalid = CmdLine::new("echo"); // required `text` missing
    let mut expired = echo("late");
    expired.set_deadline_ms(0);

    for cmd in [
        echo("a"),
        malformed,
        echo("b"),
        invalid.clone(),
        echo("c"),
        expired,
        echo("d"),
    ] {
        link.send_cmd(&cmd).unwrap();
    }
    assert_eq!(text_of(answer(&mut link)), "a");
    assert_eq!(answer(&mut link).unwrap_err(), ErrorCode::Parse);
    assert_eq!(text_of(answer(&mut link)), "b");
    assert_eq!(answer(&mut link).unwrap_err(), ErrorCode::Semantics);
    assert_eq!(text_of(answer(&mut link)), "c");
    assert_eq!(answer(&mut link).unwrap_err(), ErrorCode::Deadline);
    assert_eq!(text_of(answer(&mut link)), "d");

    // More inline refusals than one session's per-poll frame cap: the
    // session is re-queued, nothing is dropped or reordered.
    const REFUSED: usize = 40;
    for _ in 0..REFUSED {
        link.send_cmd(&invalid).unwrap();
    }
    link.send_cmd(&echo("after")).unwrap();
    for _ in 0..REFUSED {
        assert_eq!(answer(&mut link).unwrap_err(), ErrorCode::Semantics);
    }
    assert_eq!(text_of(answer(&mut link)), "after");

    link.send_cmd(&CmdLine::new("ping")).unwrap();
    answer(&mut link).expect("session still serves");
    rig.finish();
}

#[test]
fn quiesce_drains_admitted_work_then_gates_until_abort() {
    let rig = rig();
    let (mut a, mut b, mut c) = (rig.session(), rig.session(), rig.session());

    rig.hold(&mut a);
    b.send_cmd(&echo("admitted before the gate")).unwrap();
    c.send_cmd(&ace_upgrade("quiesce")).unwrap();
    rig.release();

    answer(&mut a).expect("the held verb completes");
    // The upgrade verb rides the priority lane past B's bulk verb, and its
    // drain executes that verb before the state freezes.
    assert_eq!(text_of(answer(&mut b)), "admitted before the gate");
    let quiesced = answer(&mut c).expect("quiesce");
    assert_eq!(quiesced.get_int("drained"), Some(1));
    assert!(rig.daemon.is_upgrading());

    b.send_cmd(&echo("too late")).unwrap();
    assert_eq!(answer(&mut b).unwrap_err(), ErrorCode::Upgrading);
    b.send_cmd(&CmdLine::new("ping")).unwrap();
    answer(&mut b).expect("probes stay open while quiesced");

    c.send_cmd(&ace_upgrade("abort")).unwrap();
    answer(&mut c).expect("abort");
    b.send_cmd(&echo("re-admitted")).unwrap();
    assert_eq!(text_of(answer(&mut b)), "re-admitted");
    rig.finish();
}

#[test]
fn shutdown_verb_is_acknowledged_and_queued_work_gets_exactly_one_reply() {
    let rig = rig();
    let (mut a, mut s, mut q) = (rig.session(), rig.session(), rig.session());

    rig.hold(&mut a);
    s.send_cmd(&CmdLine::new("shutdown")).unwrap();
    q.send_cmd(&echo("behind the shutdown")).unwrap();
    rig.release();

    answer(&mut a).expect("the held verb completes");
    answer(&mut s).expect("the sender of `shutdown` gets its ok before teardown");
    match answer(&mut q) {
        Ok(reply) => assert_eq!(reply.get_text("text"), Some("behind the shutdown")),
        Err(code) => assert_eq!(code, ErrorCode::Internal),
    }

    let addr = rig.daemon.addr().clone();
    rig.daemon.shutdown();
    assert!(
        q.recv_cmd(Duration::from_millis(100)).is_err(),
        "a second reply for one frame"
    );
    rig.net
        .listen(addr)
        .expect("address is free once shutdown() returns");
    rig.finish();
}

#[test]
fn a_quiesced_daemon_retiring_answers_racing_frames_in_advance() {
    let rig = rig();
    let (mut idle, mut driver) = (rig.session(), rig.session());
    driver.send_cmd(&ace_upgrade("quiesce")).unwrap();
    answer(&mut driver).expect("quiesce");

    rig.daemon.retire();
    // Whatever `idle` sends now is never read.  Its reply is already
    // waiting: the verb did not run, retry against the replacement.
    let _ = idle.send_cmd(&echo("raced the teardown"));
    assert_eq!(answer(&mut idle).unwrap_err(), ErrorCode::Upgrading);
    assert!(idle.recv_cmd(REPLY).is_err(), "then the link is closed");
    rig.finish();
}

#[test]
fn crash_answers_or_closes_but_never_hangs_a_client() {
    let rig = rig();
    let (mut a, mut q) = (rig.session(), rig.session());

    rig.hold(&mut a);
    q.send_cmd(&echo("read during teardown")).unwrap();
    std::thread::scope(|scope| {
        let crashing = scope.spawn(|| rig.daemon.crash());
        // The verb in flight bounds its client by the client's own timeout.
        let waited = Instant::now();
        assert!(a.recv_cmd(Duration::from_millis(200)).is_err());
        assert!(waited.elapsed() < Duration::from_secs(2));
        rig.release();
        crashing.join().unwrap();
    });

    // The held verb finished, so its reply went out before the stop was
    // seen; the frame behind it was read by the final sweep and abandoned.
    answer(&mut a).expect("the held verb completes");
    assert_eq!(answer(&mut q).unwrap_err(), ErrorCode::Internal);
    // Both links are closed now: a further read fails at once instead of
    // waiting out its timeout.
    let waited = Instant::now();
    assert!(a.recv_cmd(REPLY).is_err());
    assert!(q.recv_cmd(REPLY).is_err());
    assert!(waited.elapsed() < Duration::from_secs(2));
    assert!(!rig.daemon.is_running());
    rig.finish();
}

// -- casts -------------------------------------------------------------------

/// A test-side server: accepts one link and hands it over.
fn accept_one(net: &SimNet, port: u16) -> std::thread::JoinHandle<SecureLink> {
    let listener = net.listen(Addr::new("srv", port)).unwrap();
    std::thread::spawn(move || {
        let id = KeyPair::generate(&mut rand::thread_rng());
        SecureLink::accept(listener.accept().unwrap(), &id).unwrap()
    })
}

/// Invariant: casts cost calls nothing.  What a client's call puts on the
/// wire, and what the shell answers it, are byte for byte what they were
/// before casts existed (the three strings below were taken at the parent
/// commit); a cast is the command's own frame behind one marker byte, with
/// no `deadline=` — nobody waits.
#[test]
fn a_call_and_its_reply_are_the_parents_bytes_and_a_cast_is_one_byte_more() {
    let rig = rig();
    let me = KeyPair::generate(&mut rand::thread_rng());

    // What a client sends, read by a server the test owns.
    let server = accept_one(&rig.net, 7300);
    let mut client =
        ServiceClient::connect(&rig.net, &"cli".into(), Addr::new("srv", 7300), &me).unwrap();
    let mut server = server.join().unwrap();
    let opened = Arc::new(ace_core::Counter::default());
    server.attach_metrics(Arc::clone(&opened));

    let blob: Vec<u8> = (0u8..16).collect();
    let put = CmdLine::new("psPut")
        .arg("key", "k")
        .arg("data", blob.clone());
    for (cmd, golden) in [
        (echo("hi"), &b"echo text=\"hi\" deadline=5000;"[..]),
        (
            put.clone(),
            &[&b"psPut key=k data=@16 deadline=5000;\0"[..], &blob[..]].concat()[..],
        ),
    ] {
        client.send(&cmd).unwrap();
        let got = server.recv_cmd(REPLY).unwrap();
        assert!(!server.last_frame_was_cast());
        assert_eq!(got.to_frame(), golden, "a call frame is the parent's");
    }
    let mut hurried = echo("hi");
    hurried.set_deadline_ms(250);
    client.send(&hurried).unwrap();
    assert_eq!(
        server.recv_cmd(REPLY).unwrap().to_frame(),
        b"echo text=\"hi\" deadline=250;",
        "a deadline already there is left alone"
    );

    let before = opened.get();
    client.send(&put).unwrap();
    server.recv_cmd(REPLY).unwrap();
    let call_bytes = opened.get() - before;
    let before = opened.get();
    client.cast(&put).unwrap();
    let got = server.recv_cmd(REPLY).unwrap();
    assert!(server.last_frame_was_cast());
    assert_eq!(got, put, "the same command, nothing stamped on it");
    assert_eq!(
        opened.get() - before,
        call_bytes - " deadline=5000".len() as u64 + 1,
        "a cast is the command's own frame plus the marker"
    );

    // What the shell answers a call.
    let mut link = rig.session();
    link.send_cmd(&echo("hi there")).unwrap();
    assert_eq!(
        link.recv_cmd(REPLY).unwrap().to_wire(),
        "ok text=\"hi there\";"
    );
    link.send_cmd(&CmdLine::new("echo")).unwrap();
    assert_eq!(
        link.recv_cmd(REPLY).unwrap().to_wire(),
        "error code=E_SEMANTICS msg=\"command `echo` requires argument `text`\";"
    );
    rig.finish();
}

/// Invariant: a cast that ran is never answered, and casts take the same
/// one-in-flight path as calls — so ten casts and a call on one session
/// run in the order sent and exactly one frame comes back.
#[test]
fn casts_that_run_are_not_answered_and_run_in_order_before_the_call_behind_them() {
    let rig = rig();
    let mut link = rig.session();
    for i in 0..10 {
        link.send_cast(&echo(&format!("m{i}"))).unwrap();
    }
    link.send_cmd(&echo("last")).unwrap();
    assert_eq!(text_of(answer(&mut link)), "last");
    assert!(
        link.recv_cmd(Duration::from_millis(100)).is_err(),
        "a cast that ran was answered"
    );
    let mut expected: Vec<String> = (0..10).map(|i| format!("m{i}")).collect();
    expected.push("last".into());
    assert_eq!(*rig.ran.lock().unwrap(), expected);
    rig.finish();
}

/// The refusal of a cast: its code and which cast of the session it names.
fn refusal(link: &mut SecureLink) -> (ErrorCode, Option<i64>) {
    let frame = link.recv_cmd(REPLY).expect("a refusal");
    match Reply::from_cmdline(&frame) {
        Reply::Err { code, .. } => (code, frame.get_int("cast")),
        Reply::Ok(_) => panic!("a cast was answered `{frame}`"),
    }
}

/// Invariant: a cast is answered if and only if it did not run.  Every
/// refusal the shell makes of a call it makes of a cast — the same error,
/// plus `cast=<n>` counting the casts read on that session, ran or not —
/// and the session lives on.
#[test]
fn a_cast_that_did_not_run_is_refused_by_ordinal_and_the_session_lives_on() {
    let rig = rig_admitting(AdmissionConfig {
        bulk_capacity: 1,
        ..AdmissionConfig::default()
    });
    let (mut casts, mut holder, mut filler, mut driver) =
        (rig.session(), rig.session(), rig.session(), rig.session());

    // Semantics, then a deadline already spent.
    casts.send_cast(&CmdLine::new("echo")).unwrap();
    assert_eq!(refusal(&mut casts), (ErrorCode::Semantics, Some(1)));
    let mut expired = echo("late");
    expired.set_deadline_ms(0);
    casts.send_cast(&expired).unwrap();
    assert_eq!(refusal(&mut casts), (ErrorCode::Deadline, Some(2)));

    // One that runs is counted though never answered.
    casts.send_cast(&echo("third")).unwrap();

    // The quiesce gate: today's refusal, word for word, plus the ordinal.
    driver.send_cmd(&ace_upgrade("quiesce")).unwrap();
    answer(&mut driver).expect("quiesce");
    casts.send_cast(&echo("gated")).unwrap();
    assert_eq!(
        casts.recv_cmd(REPLY).unwrap().to_wire(),
        "error code=E_UPGRADING msg=\"service is upgrading; retry\" cast=4;"
    );
    driver.send_cmd(&ace_upgrade("abort")).unwrap();
    answer(&mut driver).expect("abort");

    // A full bulk lane: the holder's verb is running, the filler's call
    // takes the lane's one slot, the cast behind it finds none.
    rig.hold(&mut holder);
    filler.send_cmd(&echo("fills the lane")).unwrap();
    casts.send_cast(&echo("shed")).unwrap();
    rig.release();
    answer(&mut holder).expect("the held verb completes");
    assert_eq!(text_of(answer(&mut filler)), "fills the lane");
    assert_eq!(refusal(&mut casts), (ErrorCode::Busy, Some(5)));

    casts.send_cmd(&echo("still here")).unwrap();
    assert_eq!(text_of(answer(&mut casts)), "still here");
    assert_eq!(
        *rig.ran.lock().unwrap(),
        ["third", "fills the lane", "still here"],
        "nothing refused ran"
    );
    rig.finish();
}

/// A client connected to a peer the test answers by hand.
fn client_and_peer(port: u16) -> (ServiceClient, SecureLink) {
    let net = SimNet::new();
    net.add_host("srv");
    net.add_host("cli");
    let peer = accept_one(&net, port);
    let me = KeyPair::generate(&mut rand::thread_rng());
    let client = ServiceClient::connect(&net, &"cli".into(), Addr::new("srv", port), &me).unwrap();
    (client, peer.join().unwrap())
}

/// Invariant: a reply answers the call it was sent for.  A call that timed
/// out closes its client, so the reply that lands late is never read as the
/// next call's: that call fails at the link at once and never leaves.
#[test]
fn a_late_reply_answers_no_later_call() {
    let (mut client, mut peer) = client_and_peer(7301);
    client.set_timeout(Duration::from_millis(50));
    let a = client.call(&echo("a"));
    assert!(matches!(a, Err(ClientError::Link(_))), "call A got {a:?}");
    // The peer answers A only now, after the client gave up on it.
    assert_eq!(peer.recv_cmd(REPLY).unwrap().get_text("text"), Some("a"));
    peer.send_cmd(&CmdLine::new("ok").arg("text", Value::Str("a".into())))
        .unwrap();

    let asked = Instant::now();
    let b = client.call(&echo("b"));
    assert!(matches!(b, Err(ClientError::Link(_))), "call B got {b:?}");
    assert!(asked.elapsed() < Duration::from_millis(10), "{asked:?}");
    assert!(!client.is_healthy_idle());
    assert!(peer.recv_cmd(REPLY).is_err(), "the peer read call B");
}

/// Invariant: a cast's refusal is never a call's reply.  The peer refuses
/// a cast and then answers the call sent behind it; the call returns its
/// own answer, not the refusal.
#[test]
fn a_call_skips_the_refusal_of_a_cast_before_it() {
    let (mut client, mut peer) = client_and_peer(7302);
    client.cast(&echo("log")).unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            peer.recv_cmd(REPLY).unwrap();
            assert!(peer.last_frame_was_cast());
            let call = peer.recv_cmd(REPLY).unwrap();
            assert!(!peer.last_frame_was_cast());
            let refusal = "error code=E_BUSY msg=\"shed\" cast=1;";
            peer.send_cmd(&CmdLine::parse(refusal).unwrap()).unwrap();
            let text = Value::Str(call.get_text("text").unwrap().into());
            peer.send_cmd(&CmdLine::new("ok").arg("text", text))
                .unwrap();
        });
        let reply = client.call(&echo("get")).expect("the call's own answer");
        assert_eq!(reply.get_text("text"), Some("get"));
    });
    assert!(client.is_healthy_idle(), "the refusal was read, not left");
}

// -- the stop -----------------------------------------------------------------

/// Run `stop` on its own thread and, once the stop is up, release the held
/// handler; returns how long the stop took from that release.
fn stop_behind_a_held_handler(rig: &Rig, stop: fn(&DaemonHandle)) -> Duration {
    let daemon = &rig.daemon;
    std::thread::scope(|scope| {
        let stopping = scope.spawn(|| stop(daemon));
        while daemon.is_running() {
            std::thread::yield_now();
        }
        let released = Instant::now();
        rig.release();
        stopping.join().unwrap();
        released.elapsed()
    })
}

/// Every frame still to be read on `link`, until the daemon's close.
fn answers_until_closed(link: &mut SecureLink) -> Vec<(ErrorCode, Option<i64>)> {
    let mut answers = Vec::new();
    while let Ok(frame) = link.recv_cmd(REPLY) {
        match Reply::from_cmdline(&frame) {
            Reply::Err { code, .. } => answers.push((code, frame.get_int("cast"))),
            Reply::Ok(_) => panic!("a frame the stopping daemon owed a refusal ran: `{frame}`"),
        }
    }
    answers
}

/// Invariant: a stopping daemon answers every frame it has buffered, not one
/// per session — a call and five casts behind a held handler get six
/// refusals, the casts by ordinal, so each unread cast is a counted drop (or
/// a re-send) at its sender instead of a silent loss.  Fails if the final
/// sweep stops at a session's first frame.
#[test]
fn a_stopping_daemon_answers_every_buffered_frame_not_one_per_session() {
    let rig = rig();
    let mut link = rig.session();
    rig.hold(&mut link);
    link.send_cmd(&echo("call")).unwrap();
    for i in 1..=5 {
        link.send_cast(&echo(&format!("cast{i}"))).unwrap();
    }
    stop_behind_a_held_handler(&rig, DaemonHandle::shutdown);

    answer(&mut link).expect("the held verb completes");
    let answers = answers_until_closed(&mut link);
    assert_eq!(answers.len(), 6, "answered {} of 6", answers.len());
    let mut expected = vec![(ErrorCode::Internal, None)];
    expected.extend((1..=5).map(|n| (ErrorCode::Internal, Some(n))));
    assert_eq!(answers, expected);
    assert!(rig.ran.lock().unwrap().is_empty(), "nothing refused ran");
    rig.finish();
}

/// Invariant: a stop lands however full the lanes are (what forcing a `Stop`
/// message past their capacity used to buy).  Both lanes are filled to the
/// brim in one poll — a third ping and a third echo are shed — the priority
/// lane drains first by design, and the stop goes up while a handler holds
/// the task with the bulk lane's rest queued behind it: the stop returns
/// within the handler's time, and every queued command gets exactly one
/// `E_INTERNAL` and does not run.  Fails if the `stop` flag is read only
/// when the queue is empty.
fn a_stop_lands_behind_full_lanes(stop: fn(&DaemonHandle)) {
    let rig = rig_admitting(AdmissionConfig {
        priority_capacity: 2,
        bulk_capacity: 3,
        ..AdmissionConfig::default()
    });
    let (mut first, mut second) = (rig.session(), rig.session());
    let mut queued = [rig.session(), rig.session()];
    let mut pings = [rig.session(), rig.session()];
    let (mut shed_ping, mut shed_echo) = (rig.session(), rig.session());

    // All of this is buffered behind the held handler and read in one poll.
    rig.hold(&mut first);
    second.send_cmd(&CmdLine::new("block")).unwrap();
    for link in &mut queued {
        link.send_cmd(&echo("queued")).unwrap();
    }
    for link in &mut pings {
        link.send_cmd(&CmdLine::new("ping")).unwrap();
    }
    shed_ping.send_cmd(&CmdLine::new("ping")).unwrap();
    shed_echo.send_cmd(&echo("shed")).unwrap();
    rig.release();
    answer(&mut first).expect("the held verb completes");
    assert_eq!(answer(&mut shed_ping).unwrap_err(), ErrorCode::Busy);
    assert_eq!(answer(&mut shed_echo).unwrap_err(), ErrorCode::Busy);
    for link in &mut pings {
        answer(link).expect("the priority lane drains first");
    }
    rig.entered
        .recv_timeout(REPLY)
        .expect("the second block verb never ran");

    let took = stop_behind_a_held_handler(&rig, stop);
    assert!(took < Duration::from_secs(2), "the stop took {took:?}");
    answer(&mut second).expect("the held verb completes");
    for link in &mut queued {
        assert_eq!(
            answers_until_closed(link),
            [(ErrorCode::Internal, None)],
            "a queued command is abandoned, once"
        );
    }
    assert!(rig.ran.lock().unwrap().is_empty(), "nothing abandoned ran");
    rig.finish();
}

#[test]
fn shutdown_lands_behind_full_lanes() {
    a_stop_lands_behind_full_lanes(DaemonHandle::shutdown);
}

#[test]
fn crash_lands_behind_full_lanes() {
    a_stop_lands_behind_full_lanes(DaemonHandle::crash);
}

// -- the upgrade plane's bytes ------------------------------------------------

/// A behavior whose whole state is one 1,000-byte command line.
struct Stateful;

impl Stateful {
    fn state() -> CmdLine {
        let text = "s".repeat(1000 - "state text=\"\";".len());
        CmdLine::new("state").arg("text", Value::Str(text))
    }
}

impl ServiceBehavior for Stateful {
    fn semantics(&self) -> Semantics {
        Semantics::new()
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(ace_core::protocol::seal_snapshot("stateful", Self::state()))
    }
}

/// Invariant: a snapshot crosses the wire once.  The state rides its sealed
/// frame as a blob and that frame rides the quiesce reply as a blob, so
/// 1,000 bytes of state seal to under 1,100 and are answered in under 1,200
/// (as hex inside hex they were over 2,000 and over 4,000).
#[test]
fn a_snapshot_is_carried_as_bytes_not_as_hex_of_hex() {
    assert_eq!(Stateful::state().to_wire().len(), 1000);
    let sealed = Stateful.snapshot_state().unwrap();
    assert!(sealed.len() < 1100, "sealed to {} bytes", sealed.len());

    let net = SimNet::new();
    net.add_host("srv");
    net.add_host("cli");
    let pool = Runtime::new(2);
    let config = DaemonConfig::new("stateful", "Service.Probe", "lab", "srv", 7100)
        .with_runtime_pool(pool.clone());
    let daemon = Daemon::spawn(&net, config, Box::new(Stateful)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let conn = net.connect(&"cli".into(), daemon.addr().clone()).unwrap();
    let mut link = SecureLink::connect(conn, &me).unwrap();
    link.send_cmd(&ace_upgrade("quiesce")).unwrap();
    let reply = answer(&mut link).expect("quiesce");
    let carried = reply.get_blob("snapshot").expect("a snapshot");
    assert_eq!(&carried[..], &sealed[..]);
    let opened = ace_core::protocol::open_snapshot("stateful", &carried).unwrap();
    assert_eq!(opened, Stateful::state());
    let frame = reply.to_frame().len();
    assert!(frame < 1200, "the quiesce reply is {frame} bytes");
    drop(daemon);
    pool.shutdown();
}

// -- failures by verb and code ------------------------------------------------

/// Refuses `stale` with `E_BADSTATE` and `missing` with `E_NOTFOUND`.
struct Refuser;

impl ServiceBehavior for Refuser {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("stale", "always refused: out of date"))
            .with(CmdSpec::new("missing", "always refused: not found"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "stale" => Reply::err(ErrorCode::BadState, "out of date"),
            _ => Reply::err(ErrorCode::NotFound, "not found"),
        }
    }
}

/// A failure its sender never hears — a cast that ran and failed — is read
/// at the receiver: `aceStats` answers one `cmd.errors.<verb>.<code>` line
/// per verb and code, and those lines sum to `cmd.errors`.
#[test]
fn errors_are_counted_by_verb_and_code() {
    let net = SimNet::new();
    net.add_host("srv");
    net.add_host("cli");
    let pool = Runtime::new(2);
    let config = DaemonConfig::new("refuser", "Service.Probe", "lab", "srv", 7100)
        .with_runtime_pool(pool.clone());
    let daemon = Daemon::spawn(&net, config, Box::new(Refuser)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let conn = net.connect(&"cli".into(), daemon.addr().clone()).unwrap();
    let mut link = SecureLink::connect(conn, &me).unwrap();

    // Two casts that run and fail are answered to no one; the calls behind
    // them are answered with their refusals.
    link.send_cast(&CmdLine::new("missing")).unwrap();
    link.send_cast(&CmdLine::new("missing")).unwrap();
    link.send_cmd(&CmdLine::new("missing")).unwrap();
    link.send_cmd(&CmdLine::new("stale")).unwrap();
    assert_eq!(answer(&mut link).unwrap_err(), ErrorCode::NotFound);
    assert_eq!(answer(&mut link).unwrap_err(), ErrorCode::BadState);

    link.send_cmd(&CmdLine::new("aceStats").arg("prefix", "cmd.errors"))
        .unwrap();
    let stats = StatsReport::from_cmdline(&answer(&mut link).expect("aceStats"));
    let by_verb: Vec<(&str, u64)> = stats
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("cmd.errors."))
        .map(|(name, &n)| (name.as_str(), n))
        .collect();
    assert_eq!(
        by_verb,
        [
            ("cmd.errors.missing.E_NOTFOUND", 3),
            ("cmd.errors.stale.E_BADSTATE", 1)
        ]
    );
    assert_eq!(
        stats.counters["cmd.errors"],
        by_verb.iter().map(|&(_, n)| n).sum::<u64>()
    );
    drop(daemon);
    pool.shutdown();
}
