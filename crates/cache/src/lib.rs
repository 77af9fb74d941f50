//! # hms-cache
//!
//! The cache models of the GPU heterogeneous memory system, mirroring the
//! paper's implementation section ("we develop cache models — including
//! the texture cache, constant cache, and L2 cache — based on the cache
//! models in GPGPUSim"):
//!
//! * a generic **set-associative LRU cache** ([`setassoc`]) parameterized
//!   by [`hms_types::CacheGeometry`];
//! * the device-wide **L2** shared by global, texture and constant
//!   traffic, with per-source transaction counts ([`l2`]);
//! * the per-SM **constant cache** with broadcast semantics — a warp's
//!   access splits into one transaction per *distinct* address, each
//!   additional one an address-divergence instruction replay ([`constant`]);
//! * the per-SM **texture cache** ([`texture`]);
//! * the **shared-memory bank-conflict** model — conflicts serialize the
//!   access and each extra pass is an instruction replay
//!   ([`shared_conflict_passes`]).
//!
//! The same models serve two masters: the execution simulator (ground
//! truth) and the analytical predictor's trace analysis; the paper's
//! framework reuses its cache models the same way.

pub mod constant;
pub mod l2;
pub mod setassoc;
pub mod shared;
pub mod texture;

pub use constant::ConstantCache;
pub use l2::{L2Cache, L2Source};
pub use setassoc::{AccessOutcome, SetAssocCache};
pub use shared::shared_conflict_passes;
pub use texture::TextureCache;
