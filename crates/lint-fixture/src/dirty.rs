//! One violation per workspace lint. Never built without `dirty`.

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub struct Builder;

impl Builder {
    // return_self_not_must_use
    pub fn step(self) -> Self {
        self
    }
}

pub fn panics(v: &[u8], o: Option<u8>, r: Result<u8, ()>) -> u8 {
    let a = o.unwrap(); // unwrap_used
    let b = r.expect("ok"); // expect_used
    let c = v[0]; // indexing_slicing
    match a.wrapping_add(b).wrapping_add(c) {
        0 => panic!("zero"),   // panic
        1 => unreachable!(),   // unreachable
        2 => todo!(),          // todo
        _ => unimplemented!(), // unimplemented
    }
}

pub fn reads_nondeterminism() -> (HashMap<u8, u8>, HashSet<u8>, Instant, SystemTime) {
    // disallowed_types (above), disallowed_methods (wall clock and entropy)
    let _ = std::hash::RandomState::new();
    (
        HashMap::new(),
        HashSet::new(),
        Instant::now(),
        SystemTime::now(),
    )
}

pub fn unsafe_without_safety(p: *const u8) -> u8 {
    unsafe { *p } // unsafe_code, undocumented_unsafe_blocks
}

// A suppression that suppresses nothing: unfulfilled_lint_expectations.
#[expect(clippy::panic, reason = "stale on purpose")]
pub fn stale() {}
