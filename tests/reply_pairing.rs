//! A reply answers the call it was sent for, through every typed client.
//!
//! Each row is the first verb of one typed client, run against one scripted
//! peer that answers the call only after the client has given up on it (the
//! default call timeout: a typed client takes no other).  The client's next
//! call must fail at the link at once — not take the late answer for its
//! own.  The rows run side by side, so the test waits one timeout in all.

use ace_core::client::DEFAULT_CALL_TIMEOUT;
use ace_core::prelude::*;
use ace_core::SecureLink;
use ace_directory::{AsdClient, LoggerClient, RoomDbClient};
use ace_identity::{AuthDbClient, UserDbClient};
use ace_security::keynote::{Assertion, Licensees};
use ace_security::keys::KeyPair;
use std::time::{Duration, Instant};

/// One typed client's first verb, as a call that can be made again.
type Verb = Box<dyn FnMut() -> Result<(), ClientError> + Send>;

/// Connect one typed client from `cli` to `at` and hand back its verb.
type Row = fn(&SimNet, Addr, &KeyPair) -> Verb;

fn rows() -> [(&'static str, Row); 5] {
    [
        ("AsdClient::lookup", |net, at, me| {
            let mut c = AsdClient::connect(net, &"cli".into(), at, me).unwrap();
            Box::new(move || c.lookup(Some("camera"), None, None).map(drop))
        }),
        ("RoomDbClient::room_services", |net, at, me| {
            let mut c = RoomDbClient::connect(net, &"cli".into(), at, me).unwrap();
            Box::new(move || c.room_services("hawk").map(drop))
        }),
        ("LoggerClient::log", |net, at, me| {
            let mut c = LoggerClient::connect(net, &"cli".into(), at, me).unwrap();
            Box::new(move || c.log("info", "hello"))
        }),
        ("UserDbClient::add_user", |net, at, me| {
            let mut c = UserDbClient::connect(net, &"cli".into(), at, me).unwrap();
            Box::new(move || c.add_user("ann", "Ann", "pw", "rsa:ann", None, None))
        }),
        ("AuthDbClient::store", |net, at, me| {
            let mut c = AuthDbClient::connect(net, &"cli".into(), at, me).unwrap();
            let grant = Assertion::new(me.principal(), Licensees::Principal("ann".into()), "true")
                .and_then(|a| a.sign(me))
                .unwrap();
            Box::new(move || c.store("grant", &grant))
        }),
    ]
}

#[test]
fn a_typed_clients_call_after_a_late_reply_fails_at_the_link() {
    let net = SimNet::new();
    net.add_host("srv");
    net.add_host("cli");
    std::thread::scope(|scope| {
        for (port, (name, row)) in (7500..).zip(rows()) {
            let net = &net;
            scope.spawn(move || {
                let listener = net.listen(Addr::new("srv", port)).unwrap();
                let accepted = std::thread::spawn(move || {
                    let id = KeyPair::generate(&mut rand::thread_rng());
                    SecureLink::accept(listener.accept().unwrap(), &id).unwrap()
                });
                let me = KeyPair::generate(&mut rand::thread_rng());
                let mut verb = row(net, Addr::new("srv", port), &me);
                let mut peer = accepted.join().unwrap();

                let first = verb();
                assert!(
                    matches!(first, Err(ClientError::Link(_))),
                    "{name}: the first call got {first:?}"
                );
                // Answered only now, after the client gave up on it.
                peer.recv_cmd(DEFAULT_CALL_TIMEOUT).unwrap();
                peer.send_cmd(&CmdLine::new("ok")).unwrap();

                let asked = Instant::now();
                let second = verb();
                assert!(
                    matches!(second, Err(ClientError::Link(_))),
                    "{name}: the second call got {second:?}"
                );
                assert!(asked.elapsed() < Duration::from_millis(100), "{name}");
            });
        }
    });
}
