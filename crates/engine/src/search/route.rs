//! Cross-machine routing: which machine should run the chosen plan?
//!
//! The paper fine-tunes DACE per machine with LoRA adapters (M1/M2 differ in
//! hardware, so the same plan has different latency on each). Given a
//! registry holding machine-tuned adapters, routing is two single-plan
//! forwards, one per machine's model (`predict_ms`): score the finished plan
//! under each and run it where the predicted latency is lower. This is the learned-cost cross-engine
//! decision of "A Learned Cost Model-based Cross-engine Optimizer"
//! (PAPERS.md), applied to machine selection.

use dace_plan::MachineId;
use dace_serve::{ModelRegistry, RegistryError};

use crate::planner::PhysPlan;

/// The outcome of routing one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingDecision {
    /// The machine with the lower predicted latency (ties go to M1).
    pub machine: MachineId,
    /// Predicted latency under the M1-tuned model (ms).
    pub m1_pred_ms: f64,
    /// Predicted latency under the M2-tuned model (ms).
    pub m2_pred_ms: f64,
    /// Registry version of the M1 model that scored the plan.
    pub m1_version: u64,
    /// Registry version of the M2 model that scored the plan.
    pub m2_version: u64,
}

/// Routes finished plans to the machine whose tuned model predicts the
/// lower latency.
///
/// Adapter names are resolved per call through the registry's lock-free
/// read path, so adapter hot-swaps (a retrain loop republishing a machine's
/// adapter) take effect on the next routed query without rebuilding the
/// router.
#[derive(Debug)]
pub struct CrossMachineRouter<'a> {
    registry: &'a ModelRegistry,
    m1_adapter: Option<String>,
    m2_adapter: Option<String>,
}

impl<'a> CrossMachineRouter<'a> {
    /// Router resolving `m1_adapter` / `m2_adapter` from `registry`
    /// (`None` means the base model serves that machine).
    pub fn new(
        registry: &'a ModelRegistry,
        m1_adapter: Option<String>,
        m2_adapter: Option<String>,
    ) -> CrossMachineRouter<'a> {
        CrossMachineRouter {
            registry,
            m1_adapter,
            m2_adapter,
        }
    }

    /// Score `plan` under both machine models and pick the cheaper machine.
    pub fn route(&self, plan: &PhysPlan) -> Result<RoutingDecision, RegistryError> {
        let tree = plan.to_plan_tree();
        let m1 = self.registry.resolve(self.m1_adapter.as_deref())?;
        let m2 = self.registry.resolve(self.m2_adapter.as_deref())?;
        let m1_pred_ms = m1.estimator.predict_ms(&tree);
        let m2_pred_ms = m2.estimator.predict_ms(&tree);
        let machine = if m1_pred_ms <= m2_pred_ms {
            MachineId::M1
        } else {
            MachineId::M2
        };
        Ok(RoutingDecision {
            machine,
            m1_pred_ms,
            m2_pred_ms,
            m1_version: m1.version,
            m2_version: m2.version,
        })
    }
}
