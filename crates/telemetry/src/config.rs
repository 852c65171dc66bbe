//! Pipeline configuration.

use flex_sim::SimDuration;

/// Independent pollers, each reading every meter: two in the paper's
/// design (Section IV-D), so one poller loss loses no data.
pub const POLLERS: usize = 2;

/// Independent pub/sub systems each poller publishes on: two in the
/// paper's design (Section IV-D).
pub const PUBSUB_INSTANCES: usize = 2;

/// Management switch groups the meters are spread across: two, so one
/// switch loss removes at most one of a UPS's three logical meters,
/// which consensus masks (Section IV-D).
pub const SWITCH_GROUPS: usize = 2;

/// Parameters of the telemetry pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// UPS meter poll interval (~1.5 s in production, Section IV-D).
    pub ups_poll_interval: SimDuration,
    /// Rack meter poll interval (~2 s in production).
    pub rack_poll_interval: SimDuration,
    /// Relative (1-sigma) multiplicative meter noise.
    pub meter_noise_rel: f64,
    /// Probability per poll that a meter enters a stuck state.
    pub stuck_probability: f64,
    /// How long a stuck meter repeats its last value (up to ~5 s in the
    /// paper's experience).
    pub stuck_duration: SimDuration,
    /// Probability per poll that a meter returns nothing.
    pub drop_probability: f64,
    /// Median end-to-end processing+network latency per hop (meter →
    /// poller → pub/sub → subscriber), in milliseconds.
    pub hop_latency_median_ms: f64,
    /// Log-normal sigma of the hop latency.
    pub hop_latency_sigma: f64,
    /// Windowing delay to consolidate the physical data points of a
    /// logical meter (contributes to the paper's p99.9 < 1.5 s data
    /// latency).
    pub windowing_delay: SimDuration,
}

impl PipelineConfig {
    /// Production-like defaults matching the paper's reported figures.
    pub fn production() -> Self {
        PipelineConfig {
            ups_poll_interval: SimDuration::from_millis(1_500),
            rack_poll_interval: SimDuration::from_millis(2_000),
            meter_noise_rel: 0.004,
            stuck_probability: 0.002,
            stuck_duration: SimDuration::from_secs(5),
            drop_probability: 0.001,
            hop_latency_median_ms: 60.0,
            hop_latency_sigma: 0.5,
            windowing_delay: SimDuration::from_millis(250),
        }
    }

    /// A noiseless, fault-free variant for deterministic pipeline
    /// tests.
    #[cfg(test)]
    pub(crate) fn ideal() -> Self {
        PipelineConfig {
            meter_noise_rel: 0.0,
            stuck_probability: 0.0,
            drop_probability: 0.0,
            hop_latency_median_ms: 10.0,
            hop_latency_sigma: 0.01,
            windowing_delay: SimDuration::ZERO,
            ..PipelineConfig::production()
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::production()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_defaults_match_paper() {
        let c = PipelineConfig::production();
        assert_eq!(c.ups_poll_interval, SimDuration::from_millis(1500));
        assert_eq!(c.rack_poll_interval, SimDuration::from_secs(2));
        assert_eq!(c.stuck_duration, SimDuration::from_secs(5));
    }

    #[test]
    fn ideal_is_noise_free() {
        let c = PipelineConfig::ideal();
        assert_eq!(c.meter_noise_rel, 0.0);
        assert_eq!(c.stuck_probability, 0.0);
        assert_eq!(c.drop_probability, 0.0);
    }
}
