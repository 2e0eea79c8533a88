//! Mobile-socket failover (§9 future work): clients bound to a service
//! *name* survive the service dying and coming back elsewhere.

use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_security::keys::KeyPair;
use std::time::Duration;

struct Counter(i64);
impl ServiceBehavior for Counter {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("increment", "bump"))
            .with(CmdSpec::new("read", "value"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "increment" => {
                self.0 += 1;
                Reply::ok_with(|c| c.arg("value", self.0))
            }
            "read" => Reply::ok_with(|c| c.arg("value", self.0)),
            _ => Reply::err(ErrorCode::Internal, "unrouted"),
        }
    }
}

#[test]
fn failover_client_follows_service_across_hosts() {
    let net = SimNet::new();
    for h in ["core", "hostA", "hostB"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_millis(400)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());

    // First incarnation on hostA.
    let first = Daemon::spawn(
        &net,
        fw.service_config("counter", "Service.Counter", "hawk", "hostA", 6000)
            .with_lease_renew(Duration::from_millis(100)),
        Box::new(Counter(0)),
    )
    .unwrap();

    let mut client =
        ace_core::FailoverClient::bind(net.clone(), "core", me, fw.asd_addr.clone(), "counter")
            .with_retry_window(Duration::from_secs(10));

    let r = client.call(&CmdLine::new("increment")).unwrap();
    assert_eq!(r.get_int("value"), Some(1));
    assert_eq!(client.resolutions(), 1);

    // The service's host dies; a replacement comes up on hostB (a fresh
    // instance — state continuity is the robust-app/store layer's job).
    net.kill_host(&"hostA".into());
    first.crash();
    let second = Daemon::spawn(
        &net,
        fw.service_config("counter", "Service.Counter", "hawk", "hostB", 6000),
        Box::new(Counter(100)),
    )
    .unwrap();

    // The same bound client keeps working — idempotent reads retry through
    // a re-resolution.
    let r = client.call_idempotent(&CmdLine::new("read")).unwrap();
    assert_eq!(r.get_int("value"), Some(100), "reached the hostB instance");
    assert!(client.resolutions() >= 2, "re-resolved through the ASD");

    second.shutdown();
    fw.shutdown();
}

#[test]
fn failover_client_gives_up_after_window() {
    let net = SimNet::new();
    net.add_host("core");
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = ace_core::FailoverClient::bind(
        net.clone(),
        "core",
        me,
        fw.asd_addr.clone(),
        "ghost_service",
    )
    .with_retry_window(Duration::from_millis(200));

    let t = std::time::Instant::now();
    let err = client.call(&CmdLine::new("read")).unwrap_err();
    assert!(t.elapsed() >= Duration::from_millis(200));
    assert_eq!(err.code(), Some(ErrorCode::NotFound));
    fw.shutdown();
}

/// A dead target trips the client's circuit breaker: subsequent calls fail
/// fast *locally* (no network traffic, no retry-window wait), and once the
/// cool-down lapses a half-open probe closes the breaker again.
#[test]
fn circuit_breaker_fast_fails_and_recovers() {
    use ace_core::{BreakerConfig, BreakerRegistry};
    use std::sync::Arc;

    let net = SimNet::new();
    for h in ["core", "hostA"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let service = Daemon::spawn(
        &net,
        fw.service_config("counter", "Service.Counter", "hawk", "hostA", 6000),
        Box::new(Counter(0)),
    )
    .unwrap();

    let breaker = Arc::new(BreakerRegistry::new(BreakerConfig {
        window: Duration::from_secs(5),
        failure_threshold: 3,
        // Much longer than the client's retry window, so an opened breaker
        // stays open across every retry of the calls below — no half-open
        // probe sneaks a dial in mid-assertion.
        open_for: Duration::from_millis(1500),
        half_open_probes: 1,
    }));
    let mut client =
        ace_core::FailoverClient::bind(net.clone(), "core", me, fw.asd_addr.clone(), "counter")
            .with_retry_window(Duration::from_millis(100))
            .with_breaker(Arc::clone(&breaker));
    client.call(&CmdLine::new("increment")).unwrap();

    // Cut the service off.  Retries inside the window keep failing to
    // dial, and each failed dial feeds the breaker until it opens.
    net.partition(&"core".into(), &"hostA".into());
    for _ in 0..3 {
        assert!(client.call_idempotent(&CmdLine::new("read")).is_err());
    }
    assert!(
        breaker.is_open(&service.addr().clone(), net.clock().now()),
        "repeated dial failures never opened the breaker"
    );

    // While open, attempts are rejected locally: retryable E_BUSY, counted,
    // and far faster than the dial-and-retry path.
    let before = client.breaker_fast_fails();
    let t = std::time::Instant::now();
    let err = client.call_idempotent(&CmdLine::new("read")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Busy));
    assert!(
        client.breaker_fast_fails() > before,
        "open breaker did not fast-fail"
    );
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "fast-fail path waited on the network"
    );

    // Heal and let the cool-down lapse: the half-open probe succeeds and
    // the breaker closes for good.
    net.heal_all();
    std::thread::sleep(Duration::from_millis(1600));
    let r = client.call_idempotent(&CmdLine::new("read")).unwrap();
    assert_eq!(r.get_int("value"), Some(1));
    assert!(!breaker.is_open(&service.addr().clone(), net.clock().now()));
    client.call(&CmdLine::new("increment")).unwrap();

    service.shutdown();
    fw.shutdown();
}

#[test]
fn non_idempotent_calls_do_not_retry_after_send() {
    let net = SimNet::new();
    for h in ["core", "hostA"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let service = Daemon::spawn(
        &net,
        fw.service_config("counter", "Service.Counter", "hawk", "hostA", 6000),
        Box::new(Counter(0)),
    )
    .unwrap();

    let mut client =
        ace_core::FailoverClient::bind(net.clone(), "core", me, fw.asd_addr.clone(), "counter")
            .with_retry_window(Duration::from_millis(500));
    client.call(&CmdLine::new("increment")).unwrap();

    // Sever the link mid-session: the next non-idempotent call fails fast
    // rather than risking double execution on an established connection.
    net.partition(&"core".into(), &"hostA".into());
    let t = std::time::Instant::now();
    assert!(client.call(&CmdLine::new("increment")).is_err());
    assert!(
        t.elapsed() < Duration::from_millis(400),
        "no retry loop for non-idempotent calls on an established link"
    );

    net.heal_all();
    service.shutdown();
    fw.shutdown();
}
