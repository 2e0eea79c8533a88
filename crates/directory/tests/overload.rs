//! Overload regressions for the directory tier: the Net Logger's bounded
//! ring must absorb a flood by evicting oldest-first — retention pinned at
//! the ring bound, every eviction counted in both the `logStats` reply and
//! the `shed.records` metric — instead of growing without limit.

use ace_core::prelude::*;
use ace_directory::{LoggerClient, NetLogger};
use ace_security::keys::KeyPair;

#[test]
fn netlogger_flood_is_bounded_and_counted() {
    let net = SimNet::new();
    net.add_host("h");
    let logger = Daemon::spawn(
        &net,
        DaemonConfig::new("logger", "Service.Logger", "room", "h", 4700),
        Box::new(NetLogger::new(8)),
    )
    .unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = LoggerClient::connect(&net, &"h".into(), logger.addr().clone(), &me).unwrap();

    // Flood the record ring: 50 appends into 8 slots.
    for i in 0..50 {
        client.log("info", &format!("flood {i}")).unwrap();
    }

    // Retention stays at the bound and the newest entries won.
    let rows = client.tail(100, None).unwrap();
    assert_eq!(rows.len(), 8, "record ring grew past its bound");
    assert_eq!(rows.last().unwrap().4, "flood 49");

    // Every eviction is visible, and the two accountings agree.
    let mut raw = ServiceClient::connect(&net, &"h".into(), logger.addr().clone(), &me).unwrap();
    let stats = raw.call(&CmdLine::new("logStats")).unwrap();
    assert_eq!(stats.get_int("recordsShed"), Some(42));
    let report = StatsReport::from_cmdline(&raw.call(&CmdLine::new("aceStats")).unwrap());
    assert_eq!(report.counters.get("shed.records").copied(), Some(42));

    logger.shutdown();
}
