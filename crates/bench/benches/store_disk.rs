//! Criterion benches for E15's storage kernel: disk-image apply/get/digest.

use ace_store::{DiskImage, Versioned};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn value(version: u64) -> Versioned {
    Versioned {
        data: vec![0xabu8; 128],
        version,
        writer: "rsa:deadbeef:10001".into(),
        deleted: false,
    }
}

fn bench_disk(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_disk");

    group.bench_function("apply_fresh", |b| {
        let disk = DiskImage::new();
        let mut i = 0u64;
        b.iter(|| {
            disk.apply(("ns".into(), format!("k{i}")), value(1))
                .unwrap();
            i += 1;
        })
    });

    group.bench_function("apply_overwrite", |b| {
        let disk = DiskImage::new();
        let mut version = 1u64;
        disk.apply(("ns".into(), "k".into()), value(0)).unwrap();
        b.iter(|| {
            disk.apply(("ns".into(), "k".into()), value(version))
                .unwrap();
            version += 1;
        })
    });

    group.bench_function("get_hit", |b| {
        let disk = DiskImage::new();
        disk.apply(("ns".into(), "k".into()), value(1)).unwrap();
        let key = ("ns".to_string(), "k".to_string());
        b.iter(|| std::hint::black_box(disk.get(&key)))
    });

    for entries in [100usize, 1000] {
        let disk = DiskImage::new();
        for i in 0..entries {
            disk.apply(("ns".into(), format!("k{i}")), value(1))
                .unwrap();
        }
        group.bench_with_input(BenchmarkId::new("digest", entries), &disk, |b, disk| {
            b.iter(|| std::hint::black_box(disk.digest()))
        });
        group.bench_with_input(BenchmarkId::new("checksum", entries), &disk, |b, disk| {
            b.iter(|| std::hint::black_box(disk.checksum()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_disk
}
criterion_main!(benches);
