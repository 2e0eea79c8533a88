//! The store's pages come from one free list for the whole process: a page
//! given back on one thread is the next page taken on any other.  The
//! allocator would keep a freed page in the arena of the thread that freed
//! it, where an allocation on another thread does not look.
//!
//! One test, in a binary of its own: the list is the process's, so no
//! other test may take or give pages while this one watches which page is
//! taken.

use ace_store::{page_bytes, PageBytes, Pages, PAGE};
use std::sync::mpsc;
use std::thread;

/// Where the first page of `pages` lies.
fn page_of(pages: &Pages) -> usize {
    pages.pages().next().expect("a page").as_ptr() as usize
}

/// A page freed by a `Pages` dropped on one thread is the page that a
/// `Pages` filled on another thread takes.  The freeing thread lives until
/// the page is taken, so its allocator arena stays its own.  Fails under
/// "`Drop for Pages` frees to the allocator" (30 of 30 runs).
#[test]
fn a_page_freed_on_one_thread_is_the_next_filled_on_another() {
    let (freed_tx, freed_rx) = mpsc::channel();
    let (taken_tx, taken_rx) = mpsc::channel::<()>();
    let freer = thread::spawn(move || {
        let pages = Pages::from(&b"filled and freed on one thread"[..]);
        freed_tx.send(page_of(&pages)).unwrap();
        drop(pages);
        taken_rx.recv().unwrap();
    });
    let freed = freed_rx.recv().unwrap();
    let taken = thread::spawn(|| page_of(&Pages::from(&b"filled on another"[..])))
        .join()
        .unwrap();
    taken_tx.send(()).unwrap();
    freer.join().unwrap();
    assert_eq!(taken, freed, "the other thread took a page of its own");
    let one = PAGE as u64;
    assert_eq!(page_bytes(), PageBytes { held: 0, free: one });
}
