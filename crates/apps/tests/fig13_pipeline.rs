//! The complete Fig. 13 pipeline: video capture → converter (raw→RLE) →
//! file storage in the replicated persistent store — and the recording is
//! still readable after a store replica dies.

use ace_apps::FileStorage;
use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_media::{codec, Converter, Format, VideoCapture};
use ace_security::keys::KeyPair;
use ace_store::spawn_store_cluster;
use std::time::Duration;

#[test]
fn capture_convert_store_retrieve() {
    let net = SimNet::new();
    for h in ["core", "av", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());

    // The Fig. 13 chain.
    let storage = Daemon::spawn(
        &net,
        fw.service_config(
            "filestorage",
            "Service.FileStorage",
            "machineroom",
            "core",
            6000,
        ),
        Box::new(FileStorage::new(cluster.addrs.clone())),
    )
    .unwrap();
    let converter = Daemon::spawn(
        &net,
        fw.service_config("vconv", "Service.Converter", "hawk", "av", 6001),
        Box::new(Converter::new(Format::Raw, Format::Rle)),
    )
    .unwrap();
    let capture = Daemon::spawn(
        &net,
        fw.service_config("vcap", "Service.VideoCapture", "hawk", "av", 6002),
        Box::new(VideoCapture::new(64, 48)),
    )
    .unwrap();

    let mut conv =
        ServiceClient::connect(&net, &"core".into(), converter.addr().clone(), &me).unwrap();
    conv.call_ok(
        &CmdLine::new("addSink")
            .arg("host", storage.addr().host.as_str())
            .arg("port", storage.addr().port),
    )
    .unwrap();
    let mut cap =
        ServiceClient::connect(&net, &"core".into(), capture.addr().clone(), &me).unwrap();
    cap.call_ok(
        &CmdLine::new("addSink")
            .arg("host", converter.addr().host.as_str())
            .arg("port", converter.addr().port),
    )
    .unwrap();

    // Roll the camera.
    let reply = cap
        .call(&CmdLine::new("captureFrame").arg("count", 10))
        .unwrap();
    assert_eq!(reply.get_int("delivered"), Some(10));

    // The recording exists, compressed.
    let mut st = ServiceClient::connect(&net, &"core".into(), storage.addr().clone(), &me).unwrap();
    let listed = st
        .call(&CmdLine::new("mediaList").arg("stream", "video"))
        .unwrap();
    assert_eq!(listed.get_int("count"), Some(10));
    let stats = st
        .call(&CmdLine::new("aceStats").arg("prefix", "storage."))
        .unwrap();
    assert_eq!(
        StatsReport::from_cmdline(&stats).gauges["storage.stored"],
        10
    );

    // Fetch frame 3 and decompress: exactly the camera's rendering size.
    let frame = st
        .call(
            &CmdLine::new("mediaGet")
                .arg("stream", "video")
                .arg("seq", 3),
        )
        .unwrap();
    let rle = ace_core::protocol::hex_decode(frame.get_text("data").unwrap()).unwrap();
    assert!(
        rle.len() < 64 * 48 / 4,
        "stored compressed ({} bytes)",
        rle.len()
    );
    let raw = codec::rle_decode(&rle).unwrap();
    assert_eq!(raw.len(), 64 * 48);

    // A replica dies; the recording survives (the point of storing media in
    // the redundant store).
    net.kill_host(&"s1".into());
    let frame = st
        .call(
            &CmdLine::new("mediaGet")
                .arg("stream", "video")
                .arg("seq", 7),
        )
        .unwrap();
    assert!(frame.get_text("data").is_some());

    capture.shutdown();
    converter.shutdown();
    storage.shutdown();
    for (handle, _) in cluster.replicas {
        if handle.addr().host.as_str() == "s1" {
            handle.crash();
        } else {
            handle.shutdown();
        }
    }
    fw.shutdown();
}

/// `FileStorage`'s client-facing verbs speak text: a frame goes in as a hex
/// word and comes back as the hex word of the same bytes, whatever form the
/// hop to the store cluster gives it.
#[test]
fn media_verbs_take_and_return_hex_words() {
    let net = SimNet::new();
    for h in ["core", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let storage = Daemon::spawn(
        &net,
        fw.service_config(
            "filestorage",
            "Service.FileStorage",
            "machineroom",
            "core",
            6000,
        ),
        Box::new(FileStorage::new(cluster.addrs.clone())),
    )
    .unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut st = ServiceClient::connect(&net, &"core".into(), storage.addr().clone(), &me).unwrap();

    let frame: Vec<u8> = (0..=255u8).chain(*b"\0;\"@").collect();
    let word = ace_core::protocol::hex_encode(&frame);
    let push = CmdLine::parse(&format!("push stream=cam seq=1 data={word};")).unwrap();
    assert_eq!(st.call(&push).unwrap().get_bool("stored"), Some(true));
    let got = st
        .call(&CmdLine::parse("mediaGet stream=cam seq=1;").unwrap())
        .unwrap();
    assert_eq!(got.get_text("data"), Some(word.as_str()));
    // The store holds the bytes themselves, not their hex.
    let key = ("media".to_string(), "cam/00000001".to_string());
    assert_eq!(cluster.replicas[0].1.get(&key).unwrap().data, frame);

    // Arguments validation lets through still cannot take the daemon down.
    for bad in [
        "push stream=cam seq=2 data=xabc;",
        "push stream=cam seq=2 data=nothex;",
    ] {
        let err = st.call(&CmdLine::parse(bad).unwrap()).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Semantics), "{bad}");
    }
    assert!(st.call(&CmdLine::new("aceStats")).is_ok());

    storage.shutdown();
    cluster.shutdown();
    fw.shutdown();
}
