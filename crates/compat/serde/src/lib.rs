//! Vendored stand-in for `serde` (offline build).
//!
//! Only the derive-macro entry points are needed by this workspace: data
//! types declare `#[derive(Serialize, Deserialize)]` but nothing serializes
//! at runtime (no `serde_json` in the tree). The derives expand to nothing;
//! swapping in the real crates-io `serde` is a manifest-only change.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};
