//! The logical plan layer: every lazy skeleton pipeline is a term.
//!
//! [`crate::Map::lazy`], [`crate::Zip::lazy`], [`crate::MapOverlapVec::lazy`]
//! and [`crate::Scan::lazy`] build a [`PlanNode`] DAG instead of executing
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
//! | `scan-offset` | scan's cross-device offset pass folds into a consumer load |
//!
//! Every rule preserves the exact per-element operation order, so fused and
//! staged executions are **bit-identical**; the plan proptests and the
//! `results.plan` bench section enforce this. The stencil rule trades halo
//! recomputation against intermediate-buffer traffic, so it is additionally
//! arbitrated by a cost model fed from the EWMA scheduler's throughput
//! observations (see [`cost`]).
//!
//! The whole layer is gated by `SKELCL_PLAN`:
//!
//! * unset / `1` / `on` — all rules plus the cost model (the default);
//! * `0` / `off` — fully staged oracle: one kernel per stage, standalone
//!   stencil and scan-offset passes, plain (unwelded) reductions;
//! * a comma list of rule names (e.g. `chain,reduce-weld`) — exactly those
//!   rules, cost model off (unknown names select nothing and are reported).
//!
//! The variable is read once per session, into
//! [`Config::plan`](crate::Config::plan).

pub(crate) mod cost;
pub(crate) mod ir;
pub(crate) mod lower;

pub(crate) use ir::{PlanNode, ScanOffsetState, StencilSpec};
pub(crate) use lower::{apply_offsets, eval_vector, prepare_reduce, FusedPlan, ReduceInput};

/// Which rewrite rules a lowering may apply (parsed from `SKELCL_PLAN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Fully staged oracle: no rule fires, every stage materialises.
    pub staged: bool,
    /// Elementwise chain fusion (subsumes PR 4's `Expr` DAG fusion).
    pub chain: bool,
    /// Elementwise-into-reduce welding (subsumes `call_fused`).
    pub weld: bool,
    /// Stencil-consumes-elementwise fusion (halo recomputation).
    pub stencil: bool,
    /// Scan add-offset pass folded into a downstream elementwise load.
    pub scan_offset: bool,
    /// Arbitrate stencil fusion with the scheduler-fed cost model.
    pub cost_model: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig::all()
    }
}

impl PlanConfig {
    /// All rules on, cost model on — the default.
    pub fn all() -> Self {
        PlanConfig {
            staged: false,
            chain: true,
            weld: true,
            stencil: true,
            scan_offset: true,
            cost_model: true,
        }
    }

    /// The fully staged oracle (`SKELCL_PLAN=0`).
    pub fn oracle() -> Self {
        PlanConfig {
            staged: true,
            chain: false,
            weld: false,
            stencil: false,
            scan_offset: false,
            cost_model: false,
        }
    }

    /// Parses a `SKELCL_PLAN` value (`None` means unset → all rules). Also
    /// returns the rule names it did not recognise, which select nothing.
    pub fn parse(spec: Option<&str>) -> (Self, Vec<&str>) {
        let mut rejected = Vec::new();
        let cfg = match spec.map_or("", str::trim) {
            "" | "1" | "on" => Self::all(),
            "0" | "off" => Self::oracle(),
            list => {
                let mut cfg = PlanConfig {
                    staged: false,
                    chain: false,
                    weld: false,
                    stencil: false,
                    scan_offset: false,
                    cost_model: false,
                };
                for rule in list.split(',').map(str::trim) {
                    match rule {
                        "chain" => cfg.chain = true,
                        "reduce-weld" => cfg.weld = true,
                        "stencil" => cfg.stencil = true,
                        "scan-offset" => cfg.scan_offset = true,
                        unknown => rejected.push(unknown),
                    }
                }
                cfg
            }
        };
        (cfg, rejected)
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
        assert_eq!(PlanConfig::parse(Some("off")), clean(PlanConfig::oracle()));

        let (c, rejected) = PlanConfig::parse(Some("chain, scan-offset"));
        assert!(c.chain && c.scan_offset);
        assert!(!c.weld && !c.stencil && !c.staged && !c.cost_model);
        assert!(rejected.is_empty());

        // Unknown names select nothing and are handed back; known ones
        // still apply.
        let (c, rejected) = PlanConfig::parse(Some("chian,reduce-weld"));
        assert!(c.weld && !c.chain);
        assert_eq!(rejected, ["chian"]);
    }
}
