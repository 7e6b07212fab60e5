//! Fixture for the workspace lint policy (`[workspace.lints]` in the root
//! `Cargo.toml` plus the root `clippy.toml`). Clean by default. With
//! `--features dirty` it compiles the `dirty` module, which breaks every
//! lint the policy enables; `check.sh` asserts that clippy then fails and
//! names each one.

#[cfg(feature = "dirty")]
pub mod dirty;
