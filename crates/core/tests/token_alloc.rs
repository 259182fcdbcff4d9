//! Heap traffic of `TokenSet`, measured by a counting global allocator.
//! A set over at most 128 tokens keeps its words inside the struct, so
//! creating, cloning and combining such sets allocates nothing, while a
//! 129-token universe already needs the heap. Decoding a set whose
//! members come before its universe buffers the members as they are,
//! so a huge member costs a few bytes instead of a bitset reaching up
//! to it.

use ocd_core::{Token, TokenSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread requests; tests run on their own
/// threads, so one test never sees another's allocations.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|bytes| bytes.set(bytes.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread requested while running `f`.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// The bytes each of `new`, `clone`, `difference` and `union` requests
/// at `universe`.
fn set_operation_bytes(universe: usize) -> [usize; 4] {
    let mut a = TokenSet::new(universe);
    a.insert(Token::new(0));
    a.insert(Token::new(universe - 1));
    let b = TokenSet::from_tokens(universe, [Token::new(universe / 2)]);
    let (set, new) = requested_by(|| TokenSet::new(universe));
    let (copy, clone) = requested_by(|| a.clone());
    let (diff, difference) = requested_by(|| a.difference(&b));
    let (both, union) = requested_by(|| a.union(&b));
    assert_eq!(
        (set.len(), copy.len(), diff.len(), both.len()),
        (0, 2, 2, 3)
    );
    [new, clone, difference, union]
}

#[test]
fn sets_of_up_to_128_tokens_do_not_allocate() {
    for universe in [3, 63, 64, 65, 127, 128] {
        assert_eq!(set_operation_bytes(universe), [0; 4], "universe {universe}");
    }
}

#[test]
fn sets_of_129_tokens_allocate() {
    for universe in [129, 512] {
        let bytes = set_operation_bytes(universe);
        let words = universe.div_ceil(64) * 8;
        assert_eq!(bytes, [words; 4], "universe {universe}");
    }
}

#[test]
fn members_before_the_universe_stay_small() {
    let (decoded, bytes) = requested_by(|| {
        serde_json::from_str::<TokenSet>(r#"{"tokens": [4294967295], "universe": 3}"#)
    });
    assert_eq!(
        decoded.unwrap_err().to_string(),
        "token 4294967295 outside universe of size 3"
    );
    assert!(bytes < 1 << 20, "decoding requested {bytes} bytes");
}
