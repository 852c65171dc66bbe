//! Figure 9: stranded power by placement policy, box-plotted over
//! shuffled demand traces.
//!
//! Paper: all policies < 10%; Random worst; Balanced Round-Robin better;
//! Flex-Offline-Short −27% median vs BRR; -Long same median, narrower
//! spread; -Oracle < 2%.

use flex_bench::{
    median, paper_room_and_trace, print_box_row, run_placement_study, study_ilp_config, trace_count,
};

fn main() {
    let (room, trace) = paper_room_and_trace(2026);
    let n = trace_count();
    let ilp = study_ilp_config();
    println!(
        "Figure 9 — stranded power (% of provisioned) over {n} shuffled traces, 9.6 MW 4N/3 room\n"
    );
    let study = run_placement_study(&room, &trace, n, &ilp);
    for s in &study {
        print_box_row(&s.name, &s.stranded, 100.0, "%");
    }
    let brr = study
        .iter()
        .find(|s| s.name == "Balanced Round-Robin")
        .expect("study includes BRR");
    let short = study
        .iter()
        .find(|s| s.name == "Flex-Offline-Short")
        .expect("study includes Short");
    let oracle = study
        .iter()
        .find(|s| s.name == "Flex-Offline-Oracle")
        .expect("study includes Oracle");
    println!(
        "\nmedian reduction Flex-Offline-Short vs Balanced Round-Robin: {:.0}%  (paper: 27%)",
        (1.0 - median(&short.stranded) / median(&brr.stranded)) * 100.0
    );
    println!(
        "Flex-Offline-Oracle median: {:.2}%  (paper: < 2%)",
        median(&oracle.stranded) * 100.0
    );
}
