//! flex-chaos: seeded fault-campaign harness for the Flex-Online
//! closed loop.
//!
//! The paper's availability argument rests on the runtime loop working
//! *while the room is misbehaving*: meters stick, pollers die, pub/sub
//! duplicates, rack managers drop commands, controller instances crash
//! — usually several at once, and usually at the worst moment. This
//! crate turns that into a test surface:
//!
//! - [`scenario`] — replayable fault-combination scenarios: eight
//!   generator families (MTBF/MTTR background soup plus seven
//!   adversarial scripted shapes, including controller restart storms
//!   and pub/sub split-brain) over a small fast room, each fully
//!   described by plain JSON-able data;
//! - [`oracle`] — the post-run safety contract: no unexcused UPS trip,
//!   no orphaned rack, bounded over-shed, no stale-epoch actuation;
//! - [`campaign`] — the driver: run N seeded scenarios, judge each,
//!   greedily delta-minimize failures into 1-minimal reproducers, and
//!   emit a byte-deterministic JSON report with each failure's
//!   `flex-obs` flight-recorder dump embedded for forensics.
//!
//! Reports and replay files are `flex_obs::json` trees, so a failure
//! report embeds its flight-recorder dump as a plain subtree.
//!
//! The `flex-chaos` binary fronts all of it: `flex-chaos run` for
//! campaigns, `flex-chaos replay` to re-run a failure from its JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod oracle;
pub mod scenario;

pub use campaign::{
    ab_probe, judge, judge_obs, run, run_filtered, CampaignConfig, CampaignReport, Failure,
};
pub use oracle::Violation;
pub use scenario::{run_scenario, run_scenario_obs, Scenario};
