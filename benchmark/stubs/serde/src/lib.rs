//! Offline stand-in for `serde`: the container has no registry, and the
//! workspace only uses serde for `#[derive(Serialize, Deserialize)]` on
//! model types that the serving path never serialises through serde.

pub use serde_derive::{Deserialize, Serialize};
