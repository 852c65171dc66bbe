//! Property-based tests for the power model's electrical invariants.

use flex_power::trip_curve::{OverloadAccumulator, TripCurve};
use flex_power::{FeedState, LoadModel, Topology, UpsId, Watts};
use proptest::prelude::*;

fn arb_room() -> impl Strategy<Value = (usize, Vec<f64>)> {
    // x UPSes (2..=6) and a load (kW) for each of the x*(x-1)/2 pairs.
    (2usize..=6).prop_flat_map(|x| {
        let pairs = x * (x - 1) / 2;
        (
            Just(x),
            proptest::collection::vec(0.0f64..2000.0, pairs..=pairs),
        )
    })
}

fn build(x: usize, pair_kw: &[f64]) -> LoadModel {
    let topo = Topology::distributed_redundant(x, Watts::from_mw(2.4)).unwrap();
    let mut load = LoadModel::new(&topo);
    for (p, kw) in topo.pdu_pairs().iter().zip(pair_kw) {
        load.set_pair_load(p.id(), Watts::from_kw(*kw));
    }
    load
}

proptest! {
    /// Power is conserved by failover: one failed UPS leaves every pair
    /// a feed, so the per-UPS loads always sum to the attached IT load.
    #[test]
    fn load_conservation((x, kw) in arb_room(), failed_idx in 0usize..6) {
        let load = build(x, &kw);
        let topo = load.topology().clone();
        let mut feed = FeedState::all_online(&topo);
        if failed_idx < x {
            feed.fail(UpsId(failed_idx)).unwrap();
        }
        let loads = load.ups_loads(&feed);
        let expected = Watts::from_kw(kw.iter().sum());
        prop_assert!(loads.total().approx_eq(expected, 1e-6),
            "total {} vs expected {}", loads.total(), expected);
    }

    /// A single-UPS failover never *reduces* the load on any survivor.
    #[test]
    fn failover_is_monotone((x, kw) in arb_room(), failed_idx in 0usize..6) {
        prop_assume!(failed_idx < x);
        let load = build(x, &kw);
        let topo = load.topology().clone();
        let normal = load.ups_loads(&FeedState::all_online(&topo));
        let failed = load.ups_loads(&FeedState::with_failed(&topo, [UpsId(failed_idx)]));
        for id in topo.ups_ids() {
            if id.0 == failed_idx { continue; }
            prop_assert!(failed.load(id) + Watts::new(1e-9) >= normal.load(id) ||
                         failed.load(id).approx_eq(normal.load(id), 1e-6));
        }
    }

    /// With uniform pair loads, single failover multiplies survivor load by
    /// exactly x/(x−1) — the paper's 133% worst case for x = 4.
    #[test]
    fn uniform_failover_factor(x in 2usize..=6, kw in 1.0f64..2000.0) {
        let pairs = x * (x - 1) / 2;
        let load = build(x, &vec![kw; pairs]);
        let topo = load.topology().clone();
        let normal = load.ups_loads(&FeedState::all_online(&topo));
        let failed = load.ups_loads(&FeedState::with_failed(&topo, [UpsId(0)]));
        let factor = x as f64 / (x as f64 - 1.0);
        for id in topo.ups_ids().skip(1) {
            let ratio = failed.load(id) / normal.load(id);
            prop_assert!((ratio - factor).abs() < 1e-9, "ratio {ratio}");
        }
    }

    /// Trip-curve tolerance is monotone non-increasing in load, on both
    /// battery-life curves.
    #[test]
    fn tolerance_monotone(a in 1.03f64..2.0, b in 1.03f64..2.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        for curve in [TripCurve::end_of_life(), TripCurve::beginning_of_life()] {
            let t_lo = curve.tolerance(lo).unwrap();
            let t_hi = curve.tolerance(hi).unwrap();
            prop_assert!(t_hi <= t_lo + 1e-9);
        }
    }

    /// A constant overload trips within one step of its curve tolerance,
    /// regardless of step size.
    #[test]
    fn accumulator_matches_curve(load_frac in 1.05f64..2.0, dt in 0.01f64..1.0) {
        let curve = TripCurve::end_of_life();
        let tol = curve.tolerance(load_frac).unwrap();
        let mut acc = OverloadAccumulator::new(curve, 60.0);
        let mut t = 0.0;
        while !acc.advance(dt, load_frac) {
            t += dt;
            prop_assert!(t < tol + 2.0 * dt, "ran past tolerance: t={t} tol={tol}");
        }
        prop_assert!(t + dt >= tol - 1e-9, "tripped early: t={t} tol={tol}");
    }

    /// Damage never goes negative and never exceeds the trip latch.
    #[test]
    fn damage_bounded(steps in proptest::collection::vec((0.01f64..2.0, 0.0f64..1.8), 1..50)) {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 30.0);
        for (dt, load) in steps {
            acc.advance(dt, load);
            prop_assert!(acc.damage() >= 0.0 && acc.damage() <= 1.0);
        }
    }
}
