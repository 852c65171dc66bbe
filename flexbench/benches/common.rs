//! What every workload shares: arguments, the metric tables, output
//! digests and their references, timing statistics, and the result
//! line.

use std::fmt::Write as _;
use std::time::Instant;

use flex_obs::MetricsSnapshot;

/// End-to-end metrics, reported with `--trace 0` (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1` (name, unit). A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sim.event_ns", "ns"),
    ("sim.tick_events", "count"),
    ("power.ups_loads_us", "us"),
    ("power.ups_loads_calls", "count"),
    ("power.ups_loads_share", "ratio"),
    ("power.rack_power_us", "us"),
    ("telemetry.ups_poll_us", "us"),
    ("telemetry.rack_poll_us", "us"),
    ("telemetry.deliveries", "count"),
    ("telemetry.meter_unavailable_frac", "ratio"),
    ("online.decide_us", "us"),
    ("online.commands_issued", "count"),
    ("online.readings_stale_frac", "ratio"),
    ("online.watchdog_fires", "count"),
    ("emulation.step_us_p99", "us"),
    ("actuation.submissions", "count"),
    ("actuation.apply_frac", "ratio"),
    ("actuation.retries", "count"),
    ("actuation.fenced", "count"),
    ("obs.event_ns", "ns"),
    ("obs.flight_events", "count"),
    ("obs.share", "ratio"),
    ("placement.batch_s", "s"),
    ("milp.nodes", "count"),
    ("milp.node_us", "us"),
    ("placement.lns_closed_frac", "ratio"),
    ("placement.rebalance_s", "s"),
    ("chaos.generate_ms", "ms"),
    ("chaos.run_ms_p50", "ms"),
    ("chaos.run_ms_p99", "ms"),
    ("chaos.oracle_us", "us"),
    ("workload.trace_gen_ms", "ms"),
    ("attributed_share", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Reference output digests (`<key> <16 hex digits>` per line). A
/// change that moves a simulated statistic changes a digest; updating
/// this file is the visible re-baseline.
const REFERENCE: &str = include_str!("../reference.txt");

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: picks where in the workload's fixed input set a run
    /// starts.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value {value:?} for --trace")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// The `i`-th input of a run over a fixed set of `n` inputs: runs
    /// with different seeds start at different places in the set.
    pub fn pick(&self, i: usize, n: usize) -> usize {
        ((self.seed % n as u64) as usize + i) % n
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (episodes, scenarios, or placement batches).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Output digests, by reference key.
    pub digests: Vec<(String, u64)>,
    /// Threads the workload's process used for its work.
    pub threads: usize,
    /// Measured metrics by name (the other table fills in `main`).
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a digest, once per key (repeats of an input must match
    /// their first digest, which is checked against the reference).
    pub fn digest(&mut self, key: String, digest: u64) {
        match self.digests.iter().find(|(k, _)| *k == key) {
            Some((_, first)) if *first != digest => {
                self.digests.push((format!("{key}#repeat"), digest));
            }
            Some(_) => {}
            None => self.digests.push((key, digest)),
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Copies the obs counters every room workload reports, each
    /// divided by `ops`. Counter totals are integers summed over one
    /// full pass of the input set, so the quotients repeat exactly.
    pub fn set_counters(&mut self, c: &MetricsSnapshot, ops: u64) {
        let get = |name: &str| c.counters.get(name).copied().unwrap_or(0);
        let per_op = |name: &str| get(name) as f64 / ops.max(1) as f64;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        self.set("telemetry.deliveries", per_op("telemetry/deliveries"));
        self.set(
            "telemetry.meter_unavailable_frac",
            ratio(
                get("telemetry/meter_unavailable"),
                get("telemetry/meter_reads"),
            ),
        );
        self.set("online.commands_issued", per_op("online/commands_issued"));
        let stale = get("online/readings_stale");
        self.set(
            "online.readings_stale_frac",
            ratio(stale, stale + get("online/readings_accepted")),
        );
        self.set("online.watchdog_fires", per_op("online/watchdog_fires"));
        self.set("actuation.submissions", per_op("actuation/submissions"));
        self.set(
            "actuation.apply_frac",
            ratio(get("actuation/applies"), get("actuation/submissions")),
        );
        self.set("actuation.retries", per_op("actuation/retries"));
        self.set("actuation.fenced", per_op("actuation/fenced"));
    }
}

/// Sums the counters of several snapshots.
pub fn add_counters(total: &mut MetricsSnapshot, more: &MetricsSnapshot) {
    for (name, v) in &more.counters {
        *total.counters.entry(name.clone()).or_insert(0) += v;
    }
}

/// Runs `f` and returns its result with the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds per call of `f`, as the median of `rounds` rounds of `reps`
/// calls each (many calls per clock read, so short calls time well).
pub fn per_call<T>(rounds: usize, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps.max(1) {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() / reps.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// The `q`-quantile (0..=1) by linear interpolation; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nominal seconds of one [`calibrate`] call: end-to-end times are
/// reported in these units (see [`EndToEnd`]).
pub const CALIBRATION_S: f64 = 0.004;

/// Gauges the host's speed at this moment: the wall-clock seconds of
/// [`kernel`].
pub fn calibrate() -> f64 {
    timed(kernel).1
}

/// The calibration kernel: a heap-ordered event queue, a `BTreeMap`,
/// boxed closures and float sums, as the workloads use them. It calls
/// no code of the repository, so no change there moves it.
fn kernel() {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut counts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut xs: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
    let steps: Vec<Box<dyn Fn(f64) -> f64>> = (0..8u64)
        .map(|k| Box::new(move |v: f64| v * 1.0001 + k as f64) as Box<dyn Fn(f64) -> f64>)
        .collect();
    let mut acc = 0.0;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push(Reverse((x % 100_000, i)));
        if queue.len() > 512 {
            if let Some(Reverse((k, _))) = queue.pop() {
                *counts.entry(k % 1024).or_insert(0.0) += 1.0;
            }
        }
        let j = (x as usize) % xs.len();
        xs[j] = steps[(i % 8) as usize](xs[j]);
        if i % 64 == 0 {
            acc += xs.iter().sum::<f64>();
        }
    }
    std::hint::black_box((acc, counts.len()));
}

/// End-to-end samples of one run: per operation, its set-up and
/// measured-phase wall clock, the host speed around it, and the peak
/// resident memory while it ran.
///
/// On a shared host, co-tenant load slows every operation of a window
/// of seconds to minutes together, by up to 1.7x. Over ten 30-s windows
/// of one process, the median episode time moved by 14% (quartile
/// spread over median) and its lower decile by 8%. Times are therefore
/// reported as the lower decile of each operation's time divided by
/// the [`calibrate`] time around it, in units of [`CALIBRATION_S`]:
/// that moved by 2%.
#[derive(Default)]
pub struct EndToEnd {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    calibration_s: Vec<f64>,
    rss_mb: Vec<f64>,
}

impl EndToEnd {
    /// Runs operations until `args.seconds` have passed (at least one):
    /// `setup(i)` builds operation `i`'s input (run `setup_reps` times,
    /// keeping the last), `op` is the measured phase, and `check`
    /// judges its output untimed.
    pub fn measure<S, R>(
        args: &Args,
        setup_reps: usize,
        mut setup: impl FnMut(usize) -> S,
        mut op: impl FnMut(S) -> R,
        mut check: impl FnMut(R),
    ) -> EndToEnd {
        let mut e = EndToEnd::default();
        let mut before = calibrate();
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
            reset_peak_rss();
            let reps = setup_reps.max(1);
            let (input, secs) = timed(|| (1..reps).fold(setup(i), |_, _| setup(i)));
            let (output, run) = timed(|| op(input));
            e.rss_mb.push(peak_rss_mb());
            let after = calibrate();
            e.setup_s.push(secs / reps as f64);
            e.run_s.push(run);
            e.calibration_s.push(0.5 * (before + after));
            before = after;
            check(output);
            i += 1;
        }
        e
    }

    /// Sets `setup_s`, `run_s`, `ops_per_s` (with `ops_per_run` checked
    /// operations per measured phase) and `peak_rss_mb` (the median over
    /// operations).
    pub fn report(mut self, out: &mut Outcome, ops_per_run: f64) {
        let scaled = |xs: &[f64], cal: &[f64]| -> Vec<f64> {
            xs.iter()
                .zip(cal)
                .map(|(x, c)| x / c * CALIBRATION_S)
                .collect()
        };
        let run = lower_decile(&mut scaled(&self.run_s, &self.calibration_s));
        out.set(
            "setup_s",
            lower_decile(&mut scaled(&self.setup_s, &self.calibration_s)),
        );
        out.set("run_s", run);
        out.set("ops_per_s", ops_per_run / run);
        out.set("peak_rss_mb", median(&mut self.rss_mb));
    }
}

/// The lower decile.
fn lower_decile(values: &mut [f64]) -> f64 {
    quantile(values, 0.1)
}

/// Number of firings of a recurring tick first scheduled at
/// `offset_ns` with period `interval_ns`, within `[0, horizon_ns]`
/// (`Sim::run_until` runs events at exactly the deadline).
pub fn firings(offset_ns: u64, interval_ns: u64, horizon_ns: u64) -> u64 {
    if offset_ns > horizon_ns || interval_ns == 0 {
        return 0;
    }
    (horizon_ns - offset_ns) / interval_ns + 1
}

/// 64-bit FNV-1a over formatted text: `write!` simulated outputs into
/// it (floats in `{:?}`, which round-trips every bit).
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of one string.
pub fn digest_str(s: &str) -> u64 {
    let mut d = Digest::default();
    let _ = d.write_str(s);
    d.value()
}

/// The reference digest for `key`, if the benchmark keeps one.
pub fn reference(key: &str) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let (k, v) = line.split_once(' ')?;
        (k == key).then(|| u64::from_str_radix(v.trim(), 16).ok())?
    })
}

/// Resets this process's peak resident set to its current one (Linux
/// `clear_refs` 5), so [`peak_rss_mb`] reads the peak since the call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Formats a metric value as a JSON number (non-finite values, which no
/// metric should produce, read 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Escapes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
