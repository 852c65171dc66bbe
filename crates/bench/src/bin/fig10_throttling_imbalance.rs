//! Figure 10: throttling imbalance by placement policy.
//!
//! Paper: Balanced Round-Robin beats Random; Flex-Offline improves
//! further with horizon; -Long only slightly above -Oracle.

use flex_bench::{
    paper_room_and_trace, print_box_row, run_placement_study, study_ilp_config, trace_count,
};

fn main() {
    let (room, trace) = paper_room_and_trace(2026);
    let n = trace_count();
    let ilp = study_ilp_config();
    println!(
        "Figure 10 — throttling imbalance (max−min worst-case throttling need,\n\
         as a fraction of UPS capacity) over {n} shuffled traces\n"
    );
    let study = run_placement_study(&room, &trace, n, &ilp);
    for s in &study {
        print_box_row(&s.name, &s.imbalance, 1.0, " ");
    }
    println!("\npaper ordering: Random > Balanced Round-Robin > Short > Long ≳ Oracle");
}
