//! `placement_solve`: Flex-Offline-Short on the `fig09` room and base
//! trace (seed 2026), shuffled with stream `0x51AB + s`, under a solver
//! deadline far above the solve time, so every batch proves
//! optimality.
//!
//! `place` is `FlexOffline::short().place` with each batch solved by
//! `ilp::solve_batch_with_stats`, so nodes and proofs are recorded per
//! batch; the self-test checks it strands exactly as much power as
//! `FlexOffline` does. The default 5 s and 8 s deadlines bind on most
//! `fig09` shuffles (on a 2-vCPU VM, shuffles 6, 7, 8 and 11 needed
//! 17-25 s), which is why the input set holds only a shuffle that
//! proves optimality within seconds.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use flex_placement::ilp::{self, IlpConfig};
use flex_placement::metrics::stranded_fraction;
use flex_placement::policies::replay;
use flex_placement::{lns, Placement, Room, RoomConfig, RoomState};
use flex_power::Watts;
use flex_workload::trace::{DemandTrace, TraceConfig, TraceGenerator};
use flex_workload::DeploymentRequest;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::common::{median, timed, Args, Digest, EndToEnd, Outcome};

/// Shuffle indices `s` of the input set.
pub const SHUFFLES: [u64; 1] = [0];

/// Base-trace seed of `fig09` (`paper_room_and_trace(2026)`).
const TRACE_SEED: u64 = 2026;

/// Flex-Offline-Short's batch size, as a fraction of provisioned power.
const BATCH_FRACTION: f64 = 0.33;

/// Set-ups timed per solve: one takes well under a millisecond.
const SETUP_REPS: usize = 16;

/// Relocation moves of Flex-Offline's final rebalancing pass.
const REBALANCE_MOVES: usize = 2500;

/// The solver configuration: defaults, with a deadline that never binds.
pub fn ilp_config() -> IlpConfig {
    IlpConfig {
        time_limit: Duration::from_secs(600),
        ..IlpConfig::default()
    }
}

/// The inputs of one solve.
pub struct Input {
    /// The 9.6 MW placement room.
    pub room: Room,
    /// The shuffled trace.
    pub trace: DemandTrace,
    /// The shuffle's RNG, as Flex-Offline receives it.
    pub rng: SmallRng,
    /// Seconds `TraceGenerator::generate` took.
    pub trace_gen_s: f64,
}

/// Builds the room, base trace and shuffle `s` (the set-up phase).
pub fn setup(s: u64) -> Input {
    let room = RoomConfig::paper_placement_room()
        .build()
        .expect("paper room builds");
    let config = TraceConfig::microsoft(room.provisioned_power());
    let mut base_rng = SmallRng::seed_from_u64(TRACE_SEED);
    let (base, trace_gen_s) = timed(|| TraceGenerator::new(config).generate(&mut base_rng));
    let mut rng = SmallRng::seed_from_u64(0x51AB + s);
    let trace = base.shuffled(&mut rng);
    Input {
        room,
        trace,
        rng,
        trace_gen_s,
    }
}

/// One batch's solver diagnostics.
pub struct Batch {
    /// Wall-clock seconds of `solve_batch_with_stats`.
    pub secs: f64,
    /// Branch-and-bound nodes.
    pub nodes: u64,
    /// Whether the solve proved optimality.
    pub proved: bool,
}

/// A finished solve.
pub struct Solve {
    /// The placement.
    pub placement: Placement,
    /// Per-batch diagnostics.
    pub batches: Vec<Batch>,
    /// Seconds of the final `lns::rebalance` pass.
    pub rebalance_s: f64,
}

/// Flex-Offline-Short, batch by batch (the measured phase), with each
/// batch solve and the rebalance pass timed: a few clock reads per
/// solve, so untraced and traced runs share this path.
pub fn place(input: &mut Input) -> Solve {
    let config = ilp_config();
    let mut state = RoomState::new(&input.room);
    let mut batches = Vec::new();
    for batch in split(&input.room, &input.trace) {
        let (outcome, secs) = timed(|| ilp::solve_batch_with_stats(&state, &batch, &config));
        let (chosen, nodes, proved) = match outcome {
            Ok(o) => (o.assignments, o.nodes_explored, o.proved_optimal),
            // A failed solve rejects the batch, as Flex-Offline does.
            Err(_) => (Vec::new(), 0, false),
        };
        batches.push(Batch {
            secs,
            nodes,
            proved,
        });
        let mut placed = vec![false; batch.len()];
        for (di, pair) in chosen {
            if state.fits(&batch[di], pair) {
                state.place(&batch[di], pair);
                placed[di] = true;
            }
        }
        for (di, was_placed) in placed.iter().enumerate() {
            if !was_placed {
                state.reject(batch[di].id());
            }
        }
    }
    let trace = &input.trace;
    let ((), rebalance_s) = timed(|| {
        lns::rebalance(
            &mut state,
            |id| {
                trace
                    .deployments()
                    .iter()
                    .find(|d| d.id() == id)
                    .expect("assignment references trace deployment")
            },
            REBALANCE_MOVES,
            &mut input.rng,
        )
    });
    Solve {
        placement: state.into_placement(),
        batches,
        rebalance_s,
    }
}

/// Flex-Offline's batching: consecutive deployments until their power
/// reaches `BATCH_FRACTION` of the room's.
fn split(room: &Room, trace: &DemandTrace) -> Vec<Vec<DeploymentRequest>> {
    let threshold = room.provisioned_power() * BATCH_FRACTION;
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut acc = Watts::ZERO;
    for d in trace.deployments() {
        current.push(d.clone());
        acc += d.total_power();
        if acc >= threshold {
            out.push(std::mem::take(&mut current));
            acc = Watts::ZERO;
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Digest of a solve's deterministic outputs: the stranded fraction
/// and the nodes of every batch. With more than one solver thread, the
/// branch-and-bound engine may return any of several equally optimal
/// assignments (in about one solve in six, a different set of
/// deployments of equal power), so the assignments themselves are not
/// digested.
pub fn digest(solve: &Solve, stranded: f64) -> u64 {
    let nodes: Vec<u64> = solve.batches.iter().map(|b| b.nodes).collect();
    let mut d = Digest::default();
    let _ = write!(d, "{stranded:.12}|{nodes:?}");
    d.value()
}

/// Checks a solve into `out`: one operation per batch, failed when it
/// is not proven optimal; a placement that fails `verify_safety` fails
/// every batch.
fn check(out: &mut Outcome, input: &Input, s: u64, solve: &Solve) {
    let state = replay(&input.room, &input.trace, &solve.placement);
    let safe = state.verify_safety(input.trace.deployments()).is_empty();
    out.attempted += solve.batches.len() as u64;
    out.failed += solve.batches.iter().filter(|b| !safe || !b.proved).count() as u64;
    out.digest(
        format!("placement_solve/shuffle={s}"),
        digest(solve, stranded_fraction(&state)),
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        // The LNS replicas and the branch-and-bound workers follow
        // `available_parallelism`.
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Outcome::default()
    };
    if !args.trace {
        let mut batches = 0;
        let e2e = EndToEnd::measure(
            args,
            SETUP_REPS,
            |i| {
                let s = SHUFFLES[args.pick(i, SHUFFLES.len())];
                (s, setup(s))
            },
            |(s, mut input)| {
                let solve = place(&mut input);
                (s, input, solve)
            },
            |(s, input, solve)| {
                batches = solve.batches.len();
                check(&mut out, &input, s, &solve);
            },
        );
        e2e.report(&mut out, batches as f64);
        return out;
    }
    // The traced run: solves on the same path, whose batch and
    // rebalance clocks are the whole trace (so `trace_overhead_frac`
    // reads 0 here).
    let mut solves = Vec::new();
    let mut trace_gen_s = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let s = SHUFFLES[args.pick(i, SHUFFLES.len())];
        let mut input = setup(s);
        trace_gen_s.push(input.trace_gen_s);
        let (solve, secs) = timed(|| place(&mut input));
        check(&mut out, &input, s, &solve);
        solves.push((secs, solve));
        i += 1;
    }
    let first = &solves[0].1;
    let nodes: u64 = first.batches.iter().map(|b| b.nodes).sum();
    let closed = first.batches.iter().filter(|b| b.nodes == 0).count();
    let mut batch_s: Vec<f64> = solves
        .iter()
        .flat_map(|(_, t)| t.batches.iter().map(|b| b.secs))
        .collect();
    let mut rebalance_s: Vec<f64> = solves.iter().map(|(_, t)| t.rebalance_s).collect();
    let mut node_us: Vec<f64> = solves
        .iter()
        .map(|(_, t)| {
            let (secs, nodes) = t
                .batches
                .iter()
                .filter(|b| b.nodes > 0)
                .fold((0.0, 0u64), |(s, n), b| (s + b.secs, n + b.nodes));
            secs * 1e6 / nodes.max(1) as f64
        })
        .collect();
    let mut attributed: Vec<f64> = solves
        .iter()
        .map(|(secs, t)| (t.batches.iter().map(|b| b.secs).sum::<f64>() + t.rebalance_s) / secs)
        .collect();
    out.set("placement.batch_s", median(&mut batch_s));
    out.set("milp.nodes", nodes as f64);
    out.set("milp.node_us", median(&mut node_us));
    out.set(
        "placement.lns_closed_frac",
        closed as f64 / first.batches.len().max(1) as f64,
    );
    out.set("placement.rebalance_s", median(&mut rebalance_s));
    out.set("workload.trace_gen_ms", median(&mut trace_gen_s) * 1e3);
    out.set("obs.event_ns", crate::layers::obs_event_ns());
    out.set("attributed_share", median(&mut attributed));
    out.set("trace_overhead_frac", 0.0);
    out
}
