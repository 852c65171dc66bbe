//! Reserve utilization: Flex vs the CapMaestro-like baseline vs a
//! conventional reserved-power room.
//!
//! Paper (§I, §VII): CapMaestro is the only prior system that deploys
//! servers into the reserve, but without availability awareness it
//! "limits the amount of reserved power that can be used"; Flex can use
//! the entire reserve.

use flex_bench::{paper_room_and_trace, study, study_ilp_config, trace_count};
use flex_core::placement::policies::{Baseline, FlexOffline};
use flex_core::placement::RoomState;
use flex_core::power::Watts;
use rand::rngs::SmallRng;

fn main() {
    let (room, base) = paper_room_and_trace(2026);
    let n = trace_count().min(5);
    let ilp = study_ilp_config();
    let budget = room.failover_budget();
    let reserve = room.provisioned_power() - budget;

    println!("Reserve utilization by system (mean over {n} shuffled traces, 9.6 MW room)\n");
    println!(
        "{:<32} {:>14} {:>18} {:>14}",
        "system", "allocated", "% of reserve used", "extra servers"
    );
    let report = |name: &str, states: Vec<RoomState>| {
        let allocated_sum = states
            .iter()
            .fold(Watts::ZERO, |sum, s| sum + s.total_allocated());
        let allocated = allocated_sum * (1.0 / n as f64);
        let reserve_used = ((allocated - budget) / reserve).max(0.0);
        let extra = (allocated / budget - 1.0).max(0.0);
        println!(
            "{name:<32} {:>11.2} MW {:>17.0}% {:>+13.1}%",
            allocated.as_mw(),
            reserve_used * 100.0,
            extra * 100.0
        );
    };

    let shuffle = |rng: &mut SmallRng| base.shuffled(rng);
    let conventional = Baseline::conventional().with_config(ilp.clone());
    report(
        "Conventional (reserved power)",
        study(&room, &conventional, 0xBA5E, n, shuffle),
    );
    let capmaestro = Baseline::cap_maestro_like().with_config(ilp.clone());
    report(
        "CapMaestro-like (no shutdowns)",
        study(&room, &capmaestro, 0xBA5E, n, shuffle),
    );
    let flex = FlexOffline::short().with_config(ilp);
    report(
        "Flex-Offline-Short",
        study(&room, &flex, 0xBA5E, n, shuffle),
    );

    println!(
        "\npaper: the conventional room cannot touch the {} reserve; CapMaestro-like\n\
         uses part of it (throttling only); Flex uses essentially all of it.",
        reserve
    );
}
