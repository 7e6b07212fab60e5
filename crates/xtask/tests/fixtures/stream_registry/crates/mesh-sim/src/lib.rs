//! stream_registry fixture: stray definitions and unregistered
//! references fire; registered references and allowed sites do not.

pub const ROGUE_STREAM: u64 = 0x3;

pub fn uses_registered(seed: u64) -> u64 {
    seed ^ ALPHA_STREAM
}

pub fn uses_unregistered(seed: u64) -> u64 {
    seed ^ GHOST_STREAM
}

pub fn allowed_unregistered(seed: u64) -> u64 {
    // xtask: allow(stream_registry) -- fixture: migration in progress
    seed ^ DELTA_STREAM
}
