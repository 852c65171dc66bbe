//! Forecast-aware placement — the paper's stated future work.
//!
//! Section V-A ends: *"we plan to study how a certain short-term demand
//! can be combined with uncertain long-term demand forecast to further
//! increase the practical horizon for placement."* This module implements
//! the natural two-stage approximation: each short-horizon batch is
//! solved together with **phantom** deployments sampled from the demand
//! *distribution* (not the actual future — the forecast is honestly
//! uncertain), whose objective is discounted. The solver therefore avoids
//! layouts that would strand the expected future demand, while never
//! displacing certain demand for speculative demand.

use flex_workload::trace::{DemandTrace, TraceConfig, TraceGenerator};
use flex_workload::DeploymentRequest;
use rand::Rng;

use crate::ilp::{solve_batch_with_lookahead, IlpConfig};
use crate::policies::{commit_batch, power_batches, rebalance_placed, PlacementPolicy};
use crate::{Placement, Room, RoomState};

/// Forecast-aware Flex-Offline: short batches plus discounted phantom
/// demand sampled from a [`TraceConfig`] (the forecast model).
#[derive(Debug, Clone)]
pub struct ForecastAware {
    name: String,
    batch_fraction: f64,
    /// Discount applied to phantom demand's objective.
    discount: f64,
    /// How much phantom power to sample per batch, as a fraction of the
    /// room's provisioned power.
    lookahead_fraction: f64,
    forecast: TraceConfig,
    config: IlpConfig,
}

impl ForecastAware {
    /// A forecast-aware Short policy: 33% batches with one batch worth of
    /// discounted lookahead sampled from `forecast`.
    pub fn short(forecast: TraceConfig) -> Self {
        ForecastAware {
            name: "Flex-Offline-Forecast".into(),
            batch_fraction: 0.33,
            discount: 0.2,
            lookahead_fraction: 0.30,
            forecast,
            config: IlpConfig::default(),
        }
    }

    /// Overrides the solver configuration.
    pub fn with_config(mut self, config: IlpConfig) -> Self {
        self.config = config;
        self
    }
}

impl PlacementPolicy for ForecastAware {
    fn name(&self) -> &str {
        &self.name
    }

    fn place<R: Rng + ?Sized>(&self, room: &Room, trace: &DemandTrace, rng: &mut R) -> Placement {
        let mut state = RoomState::new(room);
        for batch in power_batches(room, trace, self.batch_fraction) {
            // Sample phantom demand from the forecast distribution,
            // capped at the configured lookahead volume: one draw per
            // batch, in batch order.
            let lookahead_power = room.provisioned_power() * self.lookahead_fraction;
            let forecast_config = TraceConfig {
                target_power: lookahead_power,
                ..self.forecast.clone()
            };
            let phantom_trace = TraceGenerator::new(forecast_config).generate(rng);
            // Phantom ids must not collide with real ones; offset them.
            let phantom: Vec<DeploymentRequest> = phantom_trace
                .deployments()
                .iter()
                .enumerate()
                .map(|(i, d)| d.with_id(flex_workload::DeploymentId(1_000_000 + i)))
                .collect();
            let chosen =
                solve_batch_with_lookahead(&state, &batch, &phantom, self.discount, &self.config)
                    .unwrap_or_default();
            commit_batch(&mut state, &batch, chosen);
        }
        // The same power-neutral rebalancing pass as Flex-Offline.
        rebalance_placed(&mut state, trace, rng);
        state.into_placement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stranded_fraction;
    use crate::policies::replay;
    use crate::RoomConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Duration;

    #[test]
    fn forecast_aware_is_safe_and_competitive() {
        let room = RoomConfig::paper_placement_room().build().unwrap();
        let config = TraceConfig::microsoft(room.provisioned_power());
        let mut rng = SmallRng::seed_from_u64(0xF0CA);
        let trace = TraceGenerator::new(config.clone()).generate(&mut rng);
        let policy = ForecastAware::short(config).with_config(IlpConfig {
            time_limit: Duration::from_secs(3),
        });
        assert_eq!(policy.name(), "Flex-Offline-Forecast");
        let placement = policy.place(&room, &trace, &mut rng);
        let state = replay(&room, &trace, &placement);
        assert!(state.verify_safety(trace.deployments()).is_empty());
        assert_eq!(
            placement.assignments.len() + placement.rejected.len(),
            trace.len()
        );
        let stranded = stranded_fraction(&state);
        assert!(stranded < 0.10, "stranded {stranded}");
    }
}
