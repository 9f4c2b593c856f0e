//! # lsm-columnar — reproduction facade
//!
//! Top-level crate of the workspace. It re-exports the public API of every
//! sub-crate so that the examples under `examples/` and the integration tests
//! under `tests/` can depend on a single crate, mirroring how a downstream
//! user would consume the project.
//!
//! The paper's evaluation (§6) is regenerated by the `bench` crate's
//! `experiments` binary, one entry per table or figure; `examples/` is the
//! guided tour.

pub use columnar;
pub use datagen;
pub use docmodel;
pub use docstore;
pub use encoding;
pub use lsm;
pub use persist;
pub use query;
pub use schema;
pub use server;
pub use storage;
pub use telemetry;

pub use docmodel::{doc, parse_json, to_json, Path, Value};
