#![warn(missing_docs)]
//! The DBMS substrate: optimizer, executor and latency simulation.
//!
//! This crate stands in for PostgreSQL 14.5 in the paper's data-collection
//! pipeline (Sec. IV-A). For a [`dace_query::Query`] it:
//!
//! 1. estimates cardinalities from table statistics ([`card`]) with the
//!    classic independence/uniformity assumptions — and therefore with
//!    realistic, structured *estimation error*;
//! 2. enumerates join orders and physical operators ([`planner`],
//!    [`search`]) under a PostgreSQL-style cost model ([`cost`]) to produce
//!    a physical plan annotated with estimated rows and cost per node;
//! 3. actually executes the plan over the columnar data ([`exec`]) to obtain
//!    the *actual* cardinality of every node;
//! 4. synthesizes per-node wall-clock latency from the actual cardinalities
//!    under a machine profile ([`latency`]) — the substitution for running
//!    on the paper's physical machines M1/M2 (see DESIGN.md §1).
//!
//! The end-to-end entry point is [`collect::collect_dataset`], which yields
//! the [`dace_plan::LabeledPlan`]s every estimator trains and evaluates on.

pub mod card;
pub mod collect;
pub mod cost;
pub mod exec;
pub mod latency;
pub mod planner;
pub mod search;

pub use card::CardEstimator;
pub use collect::{collect_dataset, explain_analyze, label_query, plan_query};
pub use cost::CostModel;
pub use exec::execute;
pub use latency::MachineProfile;
pub use planner::{plan, JoinStrategy, PhysPlan, PlanError, DP_AUTO_MAX, MAX_RELATIONS};
pub use search::{
    AnalyticScorer, CrossMachineRouter, ExplorationScorer, HybridScorer, LearnedScorer, PlanScorer,
    RoutingDecision, ScoreMemo, SearchReport, SearchSession,
};
