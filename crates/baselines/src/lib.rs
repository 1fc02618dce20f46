#![warn(missing_docs)]
//! Re-implementations of the paper's baseline cost estimators, all built on
//! `dace-nn` and sharing the [`CostEstimator`] trait.
//!
//! | Model | Family | Architecture (as described in the paper's Sec. V-A) |
//! |---|---|---|
//! | [`PgLinear`] | DBMS | linear regression mapping optimizer cost → time (the paper's "PostgreSQL" row) |
//! | [`Mscn`] | WDM | deep sets over table / join / predicate one-hots, mean pool, MLP |
//! | [`QppNet`] | WDM | per-node-type MLPs; child outputs feed parents; every sub-plan supervised equally |
//! | [`TPool`] | WDM | shared node encoder + recursive tree pooling + multi-task (cost & cardinality) heads |
//! | [`QueryFormer`] | WDM | deep transformer with height embeddings, tree-bias attention and a super node |
//! | [`ZeroShot`] | ADM | node-type-specific MLPs with bottom-up message passing |
//!
//! [`Mscn`] and [`QueryFormer`] optionally take a pre-trained
//! [`dace_core::DaceEstimator`] as an encoder (knowledge integration,
//! Eq. 9), yielding the paper's DACE-MSCN and DACE-QueryFormer.
//!
//! Simplifications vs. the original codebases (documented per module and in
//! DESIGN.md): TPool's string embeddings become hashed predicate features;
//! QueryFormer's learnable per-distance attention bias is a fixed
//! `−λ·distance` schedule (the inductive bias is preserved, the scalar is
//! not learned).

mod estimator;
mod mscn;
mod pg_linear;
mod plan_feat;
mod qppnet;
mod queryformer;
mod tpool;
mod train;
mod zeroshot;

pub use estimator::{log_ms, CostEstimator};
pub use mscn::Mscn;
pub use pg_linear::PgLinear;
pub use plan_feat::{node_features, plan_predicates, plan_tables, HASH_BUCKETS};
pub use qppnet::QppNet;
pub use queryformer::QueryFormer;
pub use tpool::TPool;
pub use zeroshot::ZeroShot;
