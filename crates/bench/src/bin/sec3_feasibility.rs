//! Section III: feasibility analysis — how often would Flex actually
//! throttle or shut anything down?
//!
//! Paper: ≥ 4 nines of operation without corrective actions;
//! P(software-redundant server shut down) ≈ 0.005%; software-redundant
//! availability ≥ 4 nines, non-redundant 5 nines.

use flex_core::analysis::feasibility::{simulate_years, FeasibilityModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let model = FeasibilityModel::paper();
    let years = if flex_bench::fast_mode() { 50 } else { 1000 };
    println!("Section III — feasibility analysis\n");
    println!("inputs:");
    println!(
        "  unplanned supply loss {} h/yr; planned {} h/yr (scheduled into dips)",
        model.unplanned_hours_per_year, model.planned_hours_per_year
    );
    println!(
        "  utilization profile: weekday peak {:.0}%, night/weekend dip to {:.0}%",
        model.profile.peak() * 100.0,
        (model.profile.peak() - 0.17) * 100.0
    );
    println!(
        "  corrective actions needed above {:.0}% utilization; shutdowns above {:.0}%\n",
        model.action_threshold * 100.0,
        model.shutdown_threshold * 100.0
    );

    println!("closed form:");
    println!(
        "  time with utilization above action threshold: {:.1}% of the week",
        model.time_fraction_above(model.action_threshold) * 100.0
    );
    let avail = model.no_action_availability();
    println!(
        "  operation without corrective actions: {:.6}% = {:.1} nines (paper: ≥ 4 nines)",
        avail * 100.0,
        FeasibilityModel::nines(avail)
    );
    let p = model.shutdown_probability();
    println!(
        "  P(software-redundant server shut down): {:.5}% (paper: ~0.005%)",
        p * 100.0
    );
    println!(
        "  software-redundant availability: {:.1} nines (paper: ≥ 4 nines)",
        FeasibilityModel::nines(model.software_redundant_availability())
    );
    println!("  non-redundant workloads: never shut down — datacenter-design 5 nines, throttling only\n");

    let mut rng = SmallRng::seed_from_u64(3);
    let mc = simulate_years(&model, years, &mut rng);
    println!("Monte-Carlo over {years} operation-years (0.1 h steps):");
    println!(
        "  unplanned downtime drawn: {:.2} h/yr; planned performed: {:.1} h/yr (all in dips)",
        mc.unplanned_hours / years as f64,
        mc.planned_hours / years as f64
    );
    println!(
        "  time needing corrective action: {:.5}% ({:.1} nines without)",
        mc.action_fraction() * 100.0,
        FeasibilityModel::nines(1.0 - mc.action_fraction())
    );
    println!(
        "  time with software-redundant shutdowns: {:.5}%",
        mc.shutdown_fraction() * 100.0
    );
}
