//! Learned-cost plan search: DACE inside the optimizer.
//!
//! The analytic planner ([`crate::planner`]) picks every scan, join and
//! aggregate by `est_cost` argmin. This module runs the *same enumeration*
//! but delegates the argmin to a pluggable [`PlanScorer`], so the choice can
//! come from batched DACE inference instead of the analytic cost model:
//!
//! * [`SearchSession`] — the driver. It collects candidate sub-plans per
//!   decision level (all scans, then each DP level's join candidates, then
//!   aggregation) and scores each level in **one** batch, the traffic shape
//!   the block-diagonal serving kernels are built for.
//! * [`PlanScorer`] — the scoring strategy: [`AnalyticScorer`] (reproduces
//!   the analytic planner bit-for-bit), [`LearnedScorer`] (batched DACE
//!   predictions, lower predicted ms wins) and [`HybridScorer`] (learned
//!   for expensive decision groups, analytic below a cost threshold).
//! * [`ScoreMemo`] — a sharded LRU over sub-plan fingerprints
//!   ([`dace_core::Featurizer::fingerprint`], the same salted Merkle key
//!   the serve feature cache uses) so shared sub-trees are featurized and
//!   scored exactly once across the enumeration. Candidates share their
//!   sub-plans by `Arc` and carry their Merkle hash and log features from
//!   construction, so keying a candidate costs O(1) and encoding a miss
//!   reads no tree but its own.
//! * [`CrossMachineRouter`] — scores the finished plan under M1- and
//!   M2-tuned adapters resolved from the serve [`ModelRegistry`] and
//!   reports the cheaper machine.
//!
//! [`ModelRegistry`]: dace_serve::ModelRegistry

mod driver;
mod memo;
mod route;
mod scorer;

pub use driver::{SearchReport, SearchSession};
pub use memo::ScoreMemo;
pub use route::{CrossMachineRouter, RoutingDecision};
pub use scorer::{AnalyticScorer, ExplorationScorer, HybridScorer, LearnedScorer, PlanScorer};
