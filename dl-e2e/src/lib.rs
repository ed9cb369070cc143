//! `dl-e2e` — the repository's benchmark. See `README.md` in this
//! directory for every metric's definition and why each workload exists.

#![forbid(unsafe_code)]

pub mod gen;
pub mod layers;
pub mod measure;
pub mod probe;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod tcp;
pub mod trace;
pub mod workload;
