//! The logical plan layer: every lazy skeleton pipeline is a term.
//!
//! [`crate::Map::lazy`], [`crate::Zip::lazy`] and
//! [`crate::MapOverlapVec::lazy`] build a plan DAG instead of executing
//! eagerly; [`crate::Expr::eval`] and [`crate::Reduce::call_fused`] lower
//! that DAG to device launches through this module. Lowering applies
//! semantics-preserving **rewrite rules** (in the spirit of
//! Steuwer/Fensch/Dubach's pattern rewrite rules):
//!
//! | rule          | rewrite                                                    |
//! |---------------|------------------------------------------------------------|
//! | `chain`       | elementwise stage chains weld into one kernel (PR 4 fusion)|
//! | `reduce-weld` | an elementwise DAG becomes the reduction's load prologue   |
//! | `stencil`     | a stencil recomputes its elementwise producer in-kernel    |
//!
//! Every rule preserves the exact per-element operation order, so fused and
//! staged executions are **bit-identical**; the plan proptests and the
//! `results.plan` bench section enforce this. The stencil rule trades halo
//! recomputation against intermediate-buffer traffic, so it is additionally
//! arbitrated by a cost model fed from the EWMA scheduler's throughput
//! observations.
//!
//! The whole layer has one switch, `SKELCL_PLAN`:
//!
//! * unset / `1` / `on` — all rules plus the cost model (the default);
//! * `0` / `off` — fully staged oracle: one kernel per stage, standalone
//!   stencil passes, plain (unwelded) reductions.
//!
//! Anything else is reported and keeps the default. The variable is read
//! once per session, into [`Config::plan`](crate::Config::plan).

pub(crate) mod cost;
pub(crate) mod ir;
pub(crate) mod lower;

pub(crate) use ir::{PlanNode, StencilSpec};
pub(crate) use lower::{eval_vector, prepare_reduce, FusedPlan, ReduceInput};

/// Whether lowering applies the rewrite rules (parsed from `SKELCL_PLAN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Fully staged oracle: no rule fires, every stage materialises.
    pub staged: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig::all()
    }
}

impl PlanConfig {
    /// All rules on, cost model on — the default.
    pub fn all() -> Self {
        PlanConfig { staged: false }
    }

    /// The fully staged oracle (`SKELCL_PLAN=0`).
    pub fn oracle() -> Self {
        PlanConfig { staged: true }
    }

    /// Parses a `SKELCL_PLAN` value (`None` means unset → all rules).
    /// Anything but a gate word falls back to the default and is returned
    /// as rejected.
    pub fn parse(spec: Option<&str>) -> (Self, Vec<&str>) {
        match spec.map_or("", str::trim) {
            "" | "1" | "on" => (Self::all(), Vec::new()),
            "0" | "off" => (Self::oracle(), Vec::new()),
            other => (Self::all(), vec![other]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_gate_values() {
        let clean = |cfg| (cfg, Vec::<&str>::new());
        assert_eq!(PlanConfig::parse(None), clean(PlanConfig::all()));
        assert_eq!(PlanConfig::parse(Some("")), clean(PlanConfig::all()));
        assert_eq!(PlanConfig::parse(Some("1")), clean(PlanConfig::all()));
        assert_eq!(PlanConfig::parse(Some("on")), clean(PlanConfig::all()));
        assert_eq!(PlanConfig::parse(Some("0")), clean(PlanConfig::oracle()));
        assert_eq!(
            PlanConfig::parse(Some(" off ")),
            clean(PlanConfig::oracle())
        );
        // Rule lists and typos select nothing of their own: the default
        // stays, and the value is handed back.
        for bad in ["chain", "chain,reduce-weld", "chian"] {
            assert_eq!(PlanConfig::parse(Some(bad)), (PlanConfig::all(), vec![bad]));
        }
    }
}
