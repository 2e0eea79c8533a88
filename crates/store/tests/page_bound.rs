//! The page bound: no store write allocates, grows or frees a buffer larger
//! than [`PAGE`].  A log, a compaction's snapshot and a rebuild's cut are
//! held in pages, so a store of any size never hands the allocator a freed
//! multi-megabyte buffer to keep.
//!
//! This binary has its own counting `#[global_allocator]`, std only: it
//! records the largest allocation, growth or free made on an armed thread.
//! Only the test's own thread is armed, so the harness's threads do not
//! count.  It is a test instrument: it checks the bound, and measures
//! nothing else.

use ace_store::{DiskImage, MemStorage, StorageHandle, Versioned, WalConfig, PAGE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Probe;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down has no locals left to read.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size().max(new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// The largest allocation, growth or free `f` made on this thread.
fn largest_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    LARGEST.with(Cell::get)
}

/// 256 keys of 16 KiB: a 4 MiB state whose map table (512 buckets) stays
/// under a page itself, so what the probe sees is the disk's.
const KEYS: u64 = 256;
const VALUE: usize = 16 << 10;

fn write(disk: &DiskImage, i: u64, version: u64) {
    let value = Versioned {
        data: vec![(i ^ version) as u8; VALUE],
        version,
        writer: "w".into(),
        deleted: false,
    };
    assert!(disk
        .apply(("ns".into(), format!("k{i:03}")), value)
        .unwrap());
}

/// A default-configured durable image: a 4 MiB log of fresh keys, then
/// overwrites through several compactions, then a rebuild's cut.  Nothing
/// allocates, grows or frees more than a page, and the log's and the
/// snapshot's pages are seen (the largest buffer is exactly one page).
/// Fails under "encode the snapshot into one `Vec`" and under "a
/// `MemStorage` segment as one `Vec`".
#[test]
fn no_store_write_allocates_more_than_a_page() {
    let handle = StorageHandle::Memory(MemStorage::new());
    let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();

    let log = largest_during(|| (0..KEYS).for_each(|i| write(&disk, i, 1)));
    assert!(disk.bytes().log > 4 << 20, "{:?}", disk.bytes());
    assert_eq!(disk.wal_stats().unwrap().compactions, 0);
    assert_eq!(log, PAGE, "a 4 MiB log of fresh keys");

    let compactions = largest_during(|| {
        for version in 2..6 {
            (0..KEYS).for_each(|i| write(&disk, i, version));
        }
    });
    assert!(disk.wal_stats().unwrap().compactions >= 3);
    assert_eq!(compactions, PAGE, "overwrites through compactions");

    let mut cut = None;
    let largest = largest_during(|| cut = Some(disk.snapshot_cut()));
    assert!(cut.unwrap().len() > 4 << 20);
    assert_eq!(largest, PAGE, "a snapshot cut");
}
