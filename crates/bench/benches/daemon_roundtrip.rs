//! Criterion bench for the end-to-end daemon command path (E4/E18): one
//! command through the secure link, the daemon task's intake, admission
//! queue and control stages, and back.

use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_security::keys::KeyPair;
use criterion::{criterion_group, criterion_main, Criterion};
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

fn bench_roundtrip(c: &mut Criterion) {
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
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client =
        ServiceClient::connect(&net, &"core".into(), daemon.addr().clone(), &me).unwrap();

    let mut group = c.benchmark_group("daemon");
    group.bench_function("command_roundtrip", |b| {
        let cmd = CmdLine::new("echo").arg("x", 42);
        b.iter(|| {
            let r = client.call(&cmd).unwrap();
            assert_eq!(r.get_int("x"), Some(42));
        })
    });
    group.bench_function("ping_roundtrip", |b| {
        let cmd = CmdLine::new("ping");
        b.iter(|| {
            client.call(&cmd).unwrap();
        })
    });
    group.bench_function("semantic_reject_roundtrip", |b| {
        let bad = CmdLine::new("nosuch");
        b.iter(|| {
            assert!(client.call(&bad).is_err());
        })
    });
    group.finish();

    daemon.shutdown();
    fw.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(3));
    targets = bench_roundtrip
}
criterion_main!(benches);
