//! Connection-storm bench: what does it cost a client to *reach* a service?
//!
//! The pre-PR path pays, per client object: an ASD lookup over a fresh
//! full-handshake link, then a second full handshake to the service.  The
//! fast path collapses both — resumption tickets skip the DH + signature
//! exchange, the link pool skips the dial entirely, and the resolution
//! cache skips the ASD round trip.  Rows:
//!
//! * `full_handshake_dial`   — dial + full handshake + ping, per iteration
//! * `resumed_dial`          — dial + ticket resumption + ping, per iteration
//! * `pooled_checkout`       — pool checkout (warm) + ping, per iteration
//! * `cold_client_full_resolve` — fresh `FailoverClient`, no pool/cache:
//!   ASD resolve + service dial + ping (the honest pre-PR client path)
//! * `cold_client_fastpath`  — fresh `FailoverClient` sharing the pool and
//!   resolution cache: the whole storm rides warm state

use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_security::keys::KeyPair;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl ServiceBehavior for Echo {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("echo", "echo").optional("x", ArgType::Int, "payload"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        let x = cmd.get_int("x").unwrap_or(0);
        Reply::ok_with(|c| c.arg("x", x))
    }
}

fn bench_connect_storm(c: &mut Criterion) {
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("svc");
    let fw = bootstrap(&net, "core", Duration::from_secs(600)).unwrap();
    let daemon = Daemon::spawn(
        &net,
        fw.service_config("echo", "Service.Echo", "hawk", "svc", 6000),
        Box::new(Echo),
    )
    .unwrap();
    let target = daemon.addr().clone();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let ping = CmdLine::new("ping");

    let mut group = c.benchmark_group("connect_storm");

    group.bench_function("full_handshake_dial", |b| {
        b.iter(|| {
            let mut client =
                ServiceClient::connect(&net, &"core".into(), target.clone(), &me).unwrap();
            client.call(&ping).unwrap();
        })
    });

    // Warm the ticket cache with one full handshake, then dials resume.
    // (Once a ticket's nonce budget drains, the next dial transparently
    // falls back, harvests a fresh ticket, and resumption continues — so a
    // long storm is overwhelmingly resumed dials with rare refreshes.)
    let tickets = TicketCache::new();
    ServiceClient::connect_resumable(&net, &"core".into(), target.clone(), &me, &tickets).unwrap();
    let probe =
        ServiceClient::connect_resumable(&net, &"core".into(), target.clone(), &me, &tickets)
            .unwrap();
    assert!(probe.resumed(), "warm dial must resume");
    drop(probe);
    group.bench_function("resumed_dial", |b| {
        b.iter(|| {
            let mut client = ServiceClient::connect_resumable(
                &net,
                &"core".into(),
                target.clone(),
                &me,
                &tickets,
            )
            .unwrap();
            client.call(&ping).unwrap();
        })
    });

    let pool = Arc::new(LinkPool::new(&net, "core", me));
    pool.checkout(&target).unwrap(); // park one warm link
    group.bench_function("pooled_checkout", |b| {
        b.iter(|| {
            let mut link = pool.checkout(&target).unwrap();
            link.call(&ping).unwrap();
        })
    });

    group.bench_function("cold_client_full_resolve", |b| {
        b.iter(|| {
            let mut client =
                FailoverClient::bind(net.clone(), "core", me, fw.asd_addr.clone(), "echo");
            client.call(&ping).unwrap();
        })
    });

    let cache = Arc::new(ResolutionCache::new());
    group.bench_function("cold_client_fastpath", |b| {
        b.iter(|| {
            let mut client =
                FailoverClient::bind(net.clone(), "core", me, fw.asd_addr.clone(), "echo")
                    .with_pool(Arc::clone(&pool))
                    .with_resolution_cache(Arc::clone(&cache));
            client.call(&ping).unwrap();
        })
    });

    group.finish();
    daemon.shutdown();
    fw.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(3));
    targets = bench_connect_storm
}
criterion_main!(benches);
