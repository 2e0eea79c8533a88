//! E8 — per-command authorization cost (Fig. 10): delegation-chain length,
//! the decision-cache ablation, and the cache under free-argument traffic
//! against a live Authorization Database.

use crate::util::*;
use ace_core::prelude::*;
use ace_core::{action_env_for, Authorizer};
use ace_identity::{AuthDb, AuthDbClient, RemoteCredentials};
use ace_security::keynote::{Assertion, KeyNoteEngine, Licensees, POLICY};
use ace_security::keys::KeyPair;
use rand::{rngs::SmallRng, Rng};
use std::sync::Arc;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// Build an engine whose authority reaches `user` through a chain of
/// `chain_len` delegations: POLICY → k1 → k2 → … → user.
fn engine_with_chain(chain_len: usize, user: &KeyPair) -> KeyNoteEngine {
    let mut engine = KeyNoteEngine::new();
    let mut links: Vec<KeyPair> = (0..chain_len).map(|_| keypair()).collect();
    links.push(*user);
    engine
        .add_policy(
            Assertion::new(
                POLICY,
                Licensees::Principal(links[0].principal()),
                "app_domain == \"ace\"",
            )
            .unwrap(),
        )
        .unwrap();
    for pair in links.windows(2) {
        let (from, to) = (&pair[0], &pair[1]);
        engine
            .add_credential(
                Assertion::new(
                    from.principal(),
                    Licensees::Principal(to.principal()),
                    "cmd == \"ptzMove\"",
                )
                .unwrap()
                .sign(from)
                .unwrap(),
            )
            .unwrap();
    }
    engine
}

/// E8: compliance-check latency vs chain length, cache on/off, plus the
/// signature-verification cost paid at credential install time.
pub fn e08() {
    header("E8", "Fig. 10", "KeyNote authorization cost");
    row(
        "delegation chain",
        &[
            "uncached check".into(),
            "cached check".into(),
            "speedup".into(),
        ],
    );
    let user = keypair();
    let cmd = CmdLine::new("ptzMove").arg("x", 10).arg("zoom", 2);
    let env = action_env_for("camera_hawk", "PTZCamera", "hawk", &cmd);
    let principal = user.principal();

    for chain in [0usize, 1, 2, 4, 8] {
        let engine = engine_with_chain(chain, &user);
        let uncached = Authorizer::local(engine.clone()).without_cache();
        let cached = Authorizer::local(engine);
        assert!(uncached.check(&principal, &env), "grant must hold");

        let t_uncached = time_median(200, || {
            std::hint::black_box(uncached.check(&principal, &env));
        });
        // Prime, then measure hits.
        cached.check(&principal, &env);
        let t_cached = time_median(200, || {
            std::hint::black_box(cached.check(&principal, &env));
        });
        row(
            &format!("{chain} intermediate link(s)"),
            &[
                fmt_dur(t_uncached),
                fmt_dur(t_cached),
                format!(
                    "{:.0}x",
                    t_uncached.as_secs_f64() / t_cached.as_secs_f64().max(1e-9)
                ),
            ],
        );
    }

    // Install-time signature verification (RSA) and denial cost.
    let admin = keypair();
    let cred = Assertion::new(
        admin.principal(),
        Licensees::Principal(user.principal()),
        "true",
    )
    .unwrap()
    .sign(&admin)
    .unwrap();
    let verify = time_median(200, || {
        cred.verify().unwrap();
    });
    row(
        "credential signature verify",
        &[fmt_dur(verify), String::new(), String::new()],
    );

    let engine = engine_with_chain(4, &user);
    let uncached = Authorizer::local(engine).without_cache();
    let stranger = keypair().principal();
    let deny = time_median(200, || {
        assert!(!uncached.check(&stranger, &env));
    });
    row(
        "denial (no path, chain 4)",
        &[fmt_dur(deny), String::new(), String::new()],
    );

    free_argument_roam();
}

/// The traffic `acebench` was steered around (benchmark/README.md finding
/// 13): users who pan, tilt and zoom freely, so that no two commands carry
/// the same arguments.  200 principals, 12 guarded devices each fetching
/// from one live AuthDB, a `room == "…"` credential per (principal, room),
/// 50,000 checks with uniformly random principal, device, x, y and zoom.
fn free_argument_roam() {
    const USERS: usize = 200;
    const DEVICES: usize = 12;
    const CHECKS: usize = 50_000;

    let net = SimNet::new();
    net.add_host("core");
    net.add_host("bar");
    let authdb = Daemon::spawn(
        &net,
        DaemonConfig::new(
            "authdb",
            "Service.Database.Authorization",
            "machineroom",
            "core",
            5400,
        ),
        Box::new(AuthDb::new()),
    )
    .expect("authdb spawns");
    let admin = keypair();
    let users: Vec<String> = (0..USERS).map(|_| keypair().principal()).collect();
    let room = |d: usize| format!("r{d:02}");
    let mut db = AuthDbClient::connect(&net, &"core".into(), authdb.addr().clone(), &admin)
        .expect("authdb answers");
    for (u, user) in users.iter().enumerate() {
        for d in 0..DEVICES {
            let conditions = format!("room == \"{}\"", room(d));
            let credential = Assertion::new(
                admin.principal(),
                Licensees::Principal(user.clone()),
                &conditions,
            )
            .and_then(|a| a.sign(&admin))
            .expect("credential signs");
            db.store(&format!("c{u}_{d}"), &credential)
                .expect("credential stored");
        }
    }
    let devices: Vec<Authorizer> = (0..DEVICES)
        .map(|_| {
            let mut engine = KeyNoteEngine::new();
            let root = Assertion::new(POLICY, Licensees::Principal(admin.principal()), "true");
            engine
                .add_policy(root.expect("constant policy parses"))
                .expect("a policy");
            let source =
                RemoteCredentials::new(net.clone(), "bar".into(), authdb.addr().clone(), keypair());
            Authorizer::with_source(engine, Arc::new(source))
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(8);
    let elapsed = time_once(|| {
        for _ in 0..CHECKS {
            let (u, d) = (rng.gen_range(0..USERS), rng.gen_range(0..DEVICES));
            let cmd = CmdLine::new("ptzMove")
                .arg("x", rng.gen_range(-170.0..170.0))
                .arg("y", rng.gen_range(-30.0..90.0))
                .arg("zoom", rng.gen_range(1.0..16.0));
            let env = action_env_for("camera", "Service.Device.PTZCamera.VCC4", &room(d), &cmd);
            assert!(
                devices[d].check(&users[u], &env),
                "credentialed user denied"
            );
        }
    });

    let (hits, misses) = devices.iter().fold((0, 0), |(h, m), device| {
        let (dh, dm) = device.cache_stats();
        (h + dh, m + dm)
    });
    let fetches = authdb
        .metrics()
        .histogram("cmd.fetchCredentials")
        .snapshot()
        .count;
    authdb.shutdown();
    // Every (principal, device) pair must be evaluated once; what the cache
    // can be judged on is the checks after that first visit.
    let repeats = CHECKS - USERS * DEVICES;
    row(
        "free pan/tilt/zoom, 200 × 12",
        &[
            format!("hit {:.3}", hits as f64 / (hits + misses) as f64),
            format!("{fetches} fetches"),
            format!("{}/check", fmt_dur(elapsed / CHECKS as u32)),
        ],
    );
    row(
        "  of the repeat visits",
        &[
            format!("hit {:.3}", hits as f64 / repeats as f64),
            String::new(),
            String::new(),
        ],
    );
}
