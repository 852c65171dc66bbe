//! Campaign driver: generate → run → judge → minimize → report.
//!
//! A campaign is fully determined by `(seed, scenario count, hardening
//! switches)`: scenario generation, every room simulation, the oracle,
//! and the minimizer are all seeded and wall-clock-free, so two runs of
//! the same campaign produce byte-identical JSON reports.

use flex_obs::json::{obj, Value};
use flex_obs::Obs;

use crate::oracle::{self, Violation};
use crate::scenario::{self, Scenario};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Root seed: scenario `i` derives from `(seed, i)`.
    pub seed: u64,
    /// Number of scenarios to generate and run.
    pub scenarios: u64,
    /// Telemetry-blackout watchdog on?
    pub watchdog: bool,
    /// Actuation retries on?
    pub retries: bool,
    /// Actuation epoch fencing on?
    pub fencing: bool,
    /// Deterministic crash recovery on?
    pub recovery: bool,
    /// Delta-minimize failing scenarios before reporting?
    pub minimize: bool,
    /// Run every scenario with a recording [`Obs`] and embed each
    /// failure's flight-recorder dump in the report? Recording never
    /// perturbs the simulation, so `obs` on/off cannot change verdicts
    /// — only whether forensics ride along.
    pub obs: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC4A05,
            scenarios: 200,
            watchdog: true,
            retries: true,
            fencing: true,
            recovery: true,
            minimize: true,
            obs: true,
        }
    }
}

/// One failing scenario with its violations and (optionally) the
/// minimized reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The generated scenario that failed.
    pub scenario: Scenario,
    /// What the oracle found.
    pub violations: Vec<Violation>,
    /// The delta-minimized scenario (same violation kinds still fire),
    /// if minimization ran.
    pub minimized: Option<Scenario>,
    /// The failing run's `flex-obs` dump (metrics + flight-recorder
    /// window), if the campaign ran with [`CampaignConfig::obs`] on.
    /// `flex-obs print/summary` reconstructs the decision timeline
    /// from this subtree alone.
    pub recorder: Option<Value>,
}

impl Failure {
    fn to_value(&self) -> Value {
        obj(vec![
            ("scenario", self.scenario.to_value()),
            (
                "violations",
                Value::Arr(self.violations.iter().map(Violation::to_value).collect()),
            ),
            (
                "minimized",
                self.minimized
                    .as_ref()
                    .map_or(Value::Null, Scenario::to_value),
            ),
            (
                "recorder",
                self.recorder.clone().unwrap_or(Value::Null),
            ),
        ])
    }
}

/// A finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The configuration that produced it.
    pub config: CampaignConfig,
    /// Scenarios that passed the oracle.
    pub clean: u64,
    /// Scenarios that tripped it.
    pub failures: Vec<Failure>,
    /// Per-family scenario counts (family name, run, failed).
    pub family_counts: Vec<(String, u64, u64)>,
}

impl CampaignReport {
    /// Serializes the whole report (deterministic byte-for-byte for a
    /// fixed config).
    pub fn to_json(&self) -> String {
        obj(vec![
            ("seed", Value::Num(self.config.seed as f64)),
            ("scenarios", Value::Num(self.config.scenarios as f64)),
            ("watchdog", Value::Bool(self.config.watchdog)),
            ("retries", Value::Bool(self.config.retries)),
            ("fencing", Value::Bool(self.config.fencing)),
            ("recovery", Value::Bool(self.config.recovery)),
            ("obs", Value::Bool(self.config.obs)),
            ("clean", Value::Num(self.clean as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Failure::to_value).collect()),
            ),
            (
                "families",
                Value::Arr(
                    self.family_counts
                        .iter()
                        .map(|(name, run, failed)| {
                            obj(vec![
                                ("family", Value::Str(name.clone())),
                                ("run", Value::Num(*run as f64)),
                                ("failed", Value::Num(*failed as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }
}

/// Runs one scenario (with the campaign's hardening switches applied)
/// and returns the oracle verdict.
pub fn judge(scenario: &Scenario) -> Vec<Violation> {
    oracle::check(&scenario::run_scenario(scenario))
}

/// Like [`judge`], but streams the run's metrics and flight events
/// into `obs` for forensics. The verdict is identical to [`judge`]'s:
/// recording cannot perturb the simulation.
pub fn judge_obs(scenario: &Scenario, obs: &Obs) -> Vec<Violation> {
    oracle::check(&scenario::run_scenario_obs(scenario, obs))
}

/// Runs a full campaign.
pub fn run(config: CampaignConfig) -> CampaignReport {
    run_filtered(config, None)
}

/// Like [`run`], but when `family` is given only scenarios of that
/// generator family execute (the others still *generate* — scenario `i`
/// stays seed-stable regardless of the filter — but are skipped, and do
/// not count as clean or appear in the family table).
pub fn run_filtered(config: CampaignConfig, family: Option<&str>) -> CampaignReport {
    let mut clean = 0u64;
    let mut failures = Vec::new();
    let mut family_counts: Vec<(String, u64, u64)> = scenario::FAMILIES
        .iter()
        .map(|f| (f.to_string(), 0, 0))
        .collect();
    for i in 0..config.scenarios {
        let mut s = scenario::generate(config.seed, i);
        if family.is_some_and(|f| f != s.family) {
            continue;
        }
        s.watchdog = config.watchdog;
        s.retries = config.retries;
        s.fencing = config.fencing;
        s.recovery = config.recovery;
        // One fresh recorder per scenario, so a failure's dump holds
        // exactly its own run (minimizer re-runs stay uninstrumented).
        let obs = if config.obs {
            Obs::recording()
        } else {
            Obs::noop()
        };
        let violations = judge_obs(&s, &obs);
        if let Some(slot) = family_counts
            .iter_mut()
            .find(|(name, _, _)| *name == s.family)
        {
            slot.1 += 1;
            if !violations.is_empty() {
                slot.2 += 1;
            }
        }
        if violations.is_empty() {
            clean += 1;
            continue;
        }
        let minimized = if config.minimize {
            Some(minimize(&s, &violations))
        } else {
            None
        };
        let recorder = config.obs.then(|| obs.dump().to_value());
        failures.push(Failure {
            scenario: s,
            violations,
            minimized,
            recorder,
        });
    }
    CampaignReport {
        config,
        clean,
        failures,
        family_counts,
    }
}

/// Upper bound on re-runs the minimizer may spend per failure.
const MINIMIZE_BUDGET: usize = 64;

/// Greedy delta minimization: repeatedly drop any single fault atom
/// whose removal preserves at least one of the original violation
/// kinds, until a fixpoint (1-minimal reproducer) or the re-run budget
/// is exhausted.
pub fn minimize(scenario: &Scenario, violations: &[Violation]) -> Scenario {
    let target_kinds: Vec<&str> = violations.iter().map(|v| v.kind.as_str()).collect();
    let still_fails = |s: &Scenario| {
        judge(s)
            .iter()
            .any(|v| target_kinds.contains(&v.kind.as_str()))
    };
    let mut current = scenario.clone();
    let mut budget = MINIMIZE_BUDGET;
    let mut progress = true;
    while progress && budget > 0 {
        progress = false;
        let mut i = 0;
        while i < current.atom_count() && budget > 0 {
            let Some(candidate) = current.without_atom(i) else {
                break;
            };
            budget -= 1;
            if still_fails(&candidate) {
                current = candidate;
                progress = true;
                // Same index now names the next atom; do not advance.
            } else {
                i += 1;
            }
        }
    }
    current
}

/// The A/B probe behind the acceptance criterion: run the campaign with
/// all four hardening features **off** (watchdog, retries, epoch
/// fencing, crash recovery), then re-judge every failure with them all
/// **on**. Returns `(report, survived)` where `survived` counts failing
/// scenarios whose hardened re-run is violation-free.
pub fn ab_probe(mut config: CampaignConfig) -> (CampaignReport, u64) {
    config.watchdog = false;
    config.retries = false;
    config.fencing = false;
    config.recovery = false;
    let report = run(config);
    let mut survived = 0u64;
    for failure in &report.failures {
        let mut hardened = failure.scenario.clone();
        hardened.watchdog = true;
        hardened.retries = true;
        hardened.fencing = true;
        hardened.recovery = true;
        if judge(&hardened).is_empty() {
            survived += 1;
        }
    }
    (report, survived)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_deterministic_and_clean() {
        let config = CampaignConfig {
            scenarios: 12,
            ..CampaignConfig::default()
        };
        let a = run(config);
        let b = run(config);
        assert_eq!(a.to_json(), b.to_json(), "campaign must be bit-identical");
        assert!(
            a.failures.is_empty(),
            "hardened loop failed: {}",
            a.to_json()
        );
        assert_eq!(a.clean, 12);
    }

    #[test]
    fn unhardened_campaign_finds_violations_that_hardening_survives() {
        let config = CampaignConfig {
            scenarios: 12,
            minimize: false,
            ..CampaignConfig::default()
        };
        let (report, survived) = ab_probe(config);
        assert!(
            !report.failures.is_empty(),
            "expected the unhardened loop to fail somewhere"
        );
        assert!(
            survived >= 1,
            "expected at least one failure to be fixed by hardening; {} failures, {survived} survived",
            report.failures.len()
        );
    }

    #[test]
    fn minimizer_shrinks_and_preserves_the_violation() {
        let mut s = crate::scenario::generate(0xC4A05, 1);
        assert_eq!(s.family, "blackout_at_failover");
        s.watchdog = false;
        // Pad with irrelevant atoms the minimizer should strip.
        s.rm_faults.push(crate::scenario::FaultWindow {
            component: "rm/0".to_string(),
            from_ms: 1_000,
            until_ms: 1_500,
        });
        s.chaos = crate::scenario::ChaosSpec {
            duplicate_period: 5,
            duplicate_delay_ms: 100,
            delay_period: 0,
            delay_ms: 0,
        };
        let violations = judge(&s);
        assert!(!violations.is_empty(), "seed scenario must fail");
        let min = minimize(&s, &violations);
        assert!(min.atom_count() < s.atom_count(), "nothing was stripped");
        assert!(
            !judge(&min).is_empty(),
            "minimized scenario no longer fails"
        );
        assert!(min.rm_faults.is_empty(), "irrelevant RM fault survived");
        assert!(min.chaos.is_off(), "irrelevant chaos survived");
    }
}
