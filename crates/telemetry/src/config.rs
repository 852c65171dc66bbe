//! Pipeline configuration.

use flex_sim::SimDuration;

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
    /// Number of independent pollers (2 in the paper's design).
    pub pollers: usize,
    /// Number of independent pub/sub systems (2 in the paper's design).
    pub pubsub_instances: usize,
    /// Number of management switch groups meters are spread across.
    pub switch_groups: usize,
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
            pollers: 2,
            pubsub_instances: 2,
            switch_groups: 2,
            hop_latency_median_ms: 60.0,
            hop_latency_sigma: 0.5,
            windowing_delay: SimDuration::from_millis(250),
        }
    }

    /// A noiseless, fault-free variant for deterministic controller
    /// tests.
    pub fn ideal() -> Self {
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
        assert_eq!(c.pollers, 2);
        assert_eq!(c.pubsub_instances, 2);
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
