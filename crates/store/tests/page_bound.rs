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
//!
//! Pages come from the process's free list, and a page taken from the
//! list is not an allocation.  So a window that must show its pages to the
//! probe first takes every free page off the list and holds it, and checks
//! by the list's counts that it made at least one page.  The tests hold
//! one lock each, so neither fills or empties the list under the other.

use ace_store::{
    page_bytes, DiskImage, MemStorage, Pages, StorageHandle, Versioned, WalConfig, PAGE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

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

/// [`largest_during`] a window that fills pages: the list is emptied
/// first, so every page `f` fills is one the list makes, which the probe
/// sees, and `f` must make one.
fn largest_filling(f: impl FnOnce()) -> usize {
    let hold = Pages::from(&vec![0; page_bytes().free as usize][..]);
    let before = page_bytes();
    assert_eq!(before.free, 0, "the list is empty");
    let largest = largest_during(f);
    let after = page_bytes();
    assert!(
        after.held + after.free > before.held,
        "the window made no page: {before:?} then {after:?}"
    );
    drop(hold);
    largest
}

/// 256 keys of 16 KiB: a 4 MiB state whose key directory (512 buckets)
/// stays under a page itself, so what the probe sees is the disk's.  (The
/// directory and the lists a cut sorts grow with the key count, about 100
/// bytes a key, not with the values.)
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
/// snapshot's pages are seen (the largest buffer is exactly one page: each
/// window starts with an empty free list and makes pages).  Fails under
/// "encode the snapshot into one `Vec`" and under "a `MemStorage` segment
/// as one `Vec`".
#[test]
fn no_store_write_allocates_more_than_a_page() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = StorageHandle::Memory(MemStorage::new());
    let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();

    let log = largest_filling(|| (0..KEYS).for_each(|i| write(&disk, i, 1)));
    assert!(disk.bytes().log > 4 << 20, "{:?}", disk.bytes());
    assert_eq!(disk.wal_stats().unwrap().compactions, 0);
    assert_eq!(log, PAGE, "a 4 MiB log of fresh keys");

    let compactions = largest_filling(|| {
        for version in 2..6 {
            (0..KEYS).for_each(|i| write(&disk, i, version));
        }
    });
    assert!(disk.wal_stats().unwrap().compactions >= 3);
    assert_eq!(compactions, PAGE, "overwrites through compactions");

    let mut cut = None;
    let largest = largest_filling(|| cut = Some(disk.snapshot_cut().unwrap()));
    let cut = cut.unwrap();
    assert!(cut.len() > 4 << 20);
    assert_eq!(largest, PAGE, "a snapshot cut");

    assert_eq!(open_and_rebuild(&handle, &cut), PAGE);
}

/// The 32 KiB chunks `psSnapFetch` ships `cut` in, as they arrive.
fn chunks(cut: &Pages) -> Vec<Vec<u8>> {
    cut.to_vec().chunks(32 << 10).map(<[u8]>::to_vec).collect()
}

/// The largest buffer of one open of `handle` (recovery scans the snapshot
/// and the log a page at a time) and of one rebuild from `cut` (the
/// chunks gathered in pages, checked, merged and installed on a fresh
/// disk).
fn open_and_rebuild(handle: &StorageHandle, cut: &Pages) -> usize {
    let shipped = chunks(cut);
    let open = largest_during(|| {
        let (disk, report) = DiskImage::open(handle, WalConfig::default()).unwrap();
        assert_eq!(disk.len(), KEYS as usize, "{report}");
    });
    let rebuild = largest_filling(|| {
        let mut pages = Pages::new();
        shipped.iter().for_each(|chunk| pages.extend(chunk));
        let fresh = StorageHandle::Memory(MemStorage::new());
        let (disk, _) = DiskImage::open(&fresh, WalConfig::default()).unwrap();
        assert_eq!(disk.install_snapshot(&pages).unwrap(), KEYS as usize);
    });
    open.max(rebuild)
}

/// A record larger than a page is the one buffer that may be: a value is
/// read whole.  With one 96 KiB value among the 16 KiB ones, an open and a
/// rebuild allocate nothing larger than that record.
#[test]
fn only_a_record_larger_than_a_page_is_read_whole() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = StorageHandle::Memory(MemStorage::new());
    let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();
    (0..KEYS).for_each(|i| write(&disk, i, 1));
    let big = Versioned {
        data: vec![7; 96 << 10],
        version: 2,
        writer: "w".into(),
        deleted: false,
    };
    let record = ace_store::wal::frame_record(&("ns".into(), "k000".into()), &big).len();
    assert!(disk.apply(("ns".into(), "k000".into()), big).unwrap());
    let cut = disk.snapshot_cut().unwrap();

    let largest = open_and_rebuild(&handle, &cut);
    assert!(
        largest > PAGE && largest <= record,
        "{largest} B for a {record} B record"
    );
}
