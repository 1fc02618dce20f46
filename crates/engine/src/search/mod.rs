//! Learned-cost plan search: DACE inside the optimizer.
//!
//! The crate's one join enumerator. [`crate::planner`] generates the
//! candidate scans, joins and aggregates; this module enumerates them and
//! delegates every argmin to a pluggable [`PlanScorer`], so the choice can
//! come from the analytic cost model ([`crate::plan`]) or from batched DACE
//! inference:
//!
//! * [`SearchSession`] — the driver. It collects candidate sub-plans per
//!   decision level (all scans, then each DP level's join candidates, then
//!   aggregation) and scores each level in **one** batch, the traffic shape
//!   the block-diagonal serving kernels are built for.
//! * [`PlanScorer`] — the scoring strategy: [`AnalyticScorer`] (lowest
//!   `est_cost`; the analytic optimizer), [`LearnedScorer`] (batched DACE
//!   predictions, lower predicted ms wins) and [`HybridScorer`] (learned
//!   for expensive decision groups, analytic below a cost threshold).
//! * [`ScoreMemo`] — a single-owner sharded LRU over sub-plan fingerprints
//!   ([`dace_core::Featurizer::fingerprint`], the same salted Merkle key
//!   the serve feature cache uses) so shared sub-trees are featurized and
//!   scored exactly once across the enumeration. Candidates share their
//!   sub-plans, wrappers and payloads by `Arc`, store their children inline
//!   and carry their Merkle hash and log features from construction, so
//!   building a losing candidate allocates nothing, keying one costs O(1)
//!   and encoding a miss reads no tree but its own.
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
