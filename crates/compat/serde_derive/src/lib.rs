//! Vendored stand-in for `serde_derive` (offline build).
//!
//! The workspace derives `Serialize`/`Deserialize` on its public data types so
//! downstream users with the real `serde` can persist metrics and configs.
//! This container has no registry access, so the derives expand to nothing:
//! the attribute positions stay valid and the real crate can be swapped back
//! in by deleting `crates/compat` and the `[patch]`-free path deps.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
