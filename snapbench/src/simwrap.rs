//! `sim-wrap`: the deterministic simulator running Algorithm 1 under
//! §5's bounded counters with a small `MAXINT`, so global resets happen
//! during the run. Every node is a closed-loop client; the driver backs
//! off one round after an abort instead of re-invoking at the same model
//! instant (which never lets model time advance).

use crate::report::Outcome;
use crate::stats::{interpolated_median, median, percentile};
use crate::timed::{Probe, Timed};
use crate::trace::{op_root, SpanLog};
use crate::windows::{rates, Mark};
use crate::Args;
use sss_core::{Alg1, Bounded, BoundedConfig};
use sss_sim::{Ctl, Driver, Sim, SimConfig};
use sss_types::{NodeId, OpId, OpResponse, Protocol, SnapshotOp};
use std::time::Instant;

/// Processes.
pub const N: usize = 16;
/// The bounded counters' `MAXINT`.
pub const MAX_INT: u64 = 2048;
/// One snapshot in this many operations per node.
const SNAP_EVERY: u64 = 16;
/// Model time simulated per repetition, in µs: about a second of wall
/// time and one to three global resets (the first comes near 30,000).
pub const HORIZON_US: u64 = 60_000;
/// Sim constructions timed per run (one per repetition, the rest
/// constructed and dropped).
const SETUPS: usize = 41;

/// The protocol every node runs.
pub type P = Bounded<Alg1>;

fn node(id: NodeId) -> P {
    Bounded::new(Alg1::new(id, N), BoundedConfig { max_int: MAX_INT })
}

fn new_sim(seed: u64) -> Sim<P> {
    Sim::new(SimConfig::small(N).with_seed(seed), node)
}

/// The simulator of the traced run: the same nodes, each timed.
fn new_timed_sim(seed: u64, probe: &Probe) -> Sim<Timed<P>> {
    Sim::new(SimConfig::small(N).with_seed(seed), |id| {
        probe.wrap(node(id))
    })
}

struct Pending {
    id: OpId,
    snap: bool,
    wall: Instant,
    model: u64,
}

/// The closed-loop driver.
pub struct WrapDriver {
    round_us: u64,
    seq: Vec<u64>,
    pending: Vec<Option<Pending>>,
    /// Kind of the op each node must re-issue after its back-off.
    retry_snap: Vec<bool>,
    /// Model-time write latencies (model µs).
    pub model_writes: Vec<u64>,
    /// Model-time snapshot latencies (model µs).
    pub model_snaps: Vec<u64>,
    /// Completed operations.
    pub completed: u64,
    /// Aborted invocations (each is retried after a back-off).
    pub aborted: u64,
    /// Model µs from each abort episode's first abort to the next
    /// completion.
    pub stalls: Vec<u64>,
    stall_open: Option<u64>,
    /// Driver callback spans.
    pub spans: SpanLog,
}

impl WrapDriver {
    /// A driver for `n` nodes whose rounds are `round_us` apart.
    pub fn new(n: usize, round_us: u64, spans: SpanLog) -> Self {
        WrapDriver {
            round_us,
            seq: vec![0; n],
            pending: (0..n).map(|_| None).collect(),
            retry_snap: vec![false; n],
            model_writes: Vec::new(),
            model_snaps: Vec::new(),
            completed: 0,
            aborted: 0,
            stalls: Vec::new(),
            stall_open: None,
            spans,
        }
    }

    fn issue<M>(&mut self, node: usize, snap: bool, ctl: &mut Ctl<'_, M>) {
        self.seq[node] += 1;
        let op = if snap {
            SnapshotOp::Snapshot
        } else {
            SnapshotOp::Write(((node as u64 + 1) << 40) | self.seq[node])
        };
        let id = ctl.invoke(NodeId(node), op);
        self.pending[node] = Some(Pending {
            id,
            snap,
            wall: Instant::now(),
            model: ctl.now(),
        });
    }

    fn next_is_snap(&self, node: usize) -> bool {
        (self.seq[node] + 1).is_multiple_of(SNAP_EVERY)
    }
}

impl<Q: Protocol> Driver<Q> for WrapDriver {
    fn init(&mut self, ctl: &mut Ctl<'_, Q::Msg>) {
        for node in 0..ctl.n() {
            let snap = self.next_is_snap(node);
            self.issue(node, snap, ctl);
        }
    }

    fn on_completion(
        &mut self,
        node: NodeId,
        id: OpId,
        _resp: &OpResponse,
        ctl: &mut Ctl<'_, Q::Msg>,
    ) {
        let t0 = Instant::now();
        let i = node.index();
        if let Some(p) = self.pending[i].take_if(|p| p.id == id) {
            let model = if p.snap {
                &mut self.model_snaps
            } else {
                &mut self.model_writes
            };
            model.push(ctl.now() - p.model);
            self.completed += 1;
            let name = if p.snap { "sim.snapshot" } else { "sim.write" };
            self.spans
                .record_with_id(name, op_root(id.0), 0, id.0, p.wall, t0);
        }
        if let Some(first) = self.stall_open.take() {
            self.stalls.push(ctl.now() - first);
        }
        let snap = self.next_is_snap(i);
        self.issue(i, snap, ctl);
        self.spans.record(
            "driver.on_completion",
            op_root(id.0),
            id.0,
            t0,
            Instant::now(),
        );
    }

    fn on_abort(&mut self, node: NodeId, id: OpId, ctl: &mut Ctl<'_, Q::Msg>) {
        let t0 = Instant::now();
        let i = node.index();
        if let Some(p) = self.pending[i].take_if(|p| p.id == id) {
            self.retry_snap[i] = p.snap;
        }
        self.aborted += 1;
        self.stall_open.get_or_insert(ctl.now());
        // Back off one round: re-invoking at this instant would abort
        // again without letting model time advance.
        ctl.wake_at(ctl.now() + self.round_us, i as u64);
        self.spans
            .record("driver.on_abort", op_root(id.0), id.0, t0, Instant::now());
    }

    fn on_wake(&mut self, token: u64, ctl: &mut Ctl<'_, Q::Msg>) {
        let i = token as usize;
        let snap = self.retry_snap[i];
        self.issue(i, snap, ctl);
    }
}

/// One repetition's measurements.
pub struct Rep<Q: Protocol = P> {
    /// The driver after the run.
    pub driver: WrapDriver,
    /// The finished simulator.
    pub sim: Sim<Q>,
    /// Readings before and after the run (ops = completed operations).
    pub marks: [Mark; 2],
    /// Seconds `Sim::new` took.
    pub setup_s: f64,
}

impl<Q: Protocol> Rep<Q> {
    /// Wall seconds of the whole run.
    pub fn wall_s(&self) -> f64 {
        (self.marks[1].at - self.marks[0].at).as_secs_f64()
    }

    /// Process CPU µs of the whole run.
    pub fn cpu_us(&self) -> u64 {
        self.marks[1].cpu_us - self.marks[0].cpu_us
    }
}

/// Runs one repetition: a fresh simulator from `mk` up to the horizon.
pub fn rep<Q: Protocol>(mk: impl FnOnce() -> Sim<Q>, horizon_us: u64, spans: SpanLog) -> Rep<Q> {
    let t0 = Instant::now();
    let mut sim = mk();
    let setup_s = t0.elapsed().as_secs_f64();
    let mut driver = WrapDriver::new(N, sim.config().round_interval, spans);
    let start = Mark::now(0);
    sim.run_with_driver(&mut driver, horizon_us);
    let marks = [start, Mark::now(driver.completed)];
    driver
        .spans
        .record("sim.run_with_driver", 0, 0, marks[0].at, marks[1].at);
    Rep {
        driver,
        sim,
        marks,
        setup_s,
    }
}

fn events<Q: Protocol>(sim: &Sim<Q>) -> u64 {
    let m = sim.metrics();
    m.rounds + m.kinds().map(|(_, k)| k.delivered).sum::<u64>()
}

/// Runs repetitions of the same seeded simulation until `--seconds`
/// have passed (at least two), checks the first one's history and that
/// every repetition hashes equal, and reports the simulated system's
/// metrics in model time and the simulator's CPU cost per op as its
/// median over repetitions.
pub fn run(args: &Args, out: &mut Outcome) -> Option<Rep<Timed<P>>> {
    let budget = args.window();
    let start = Instant::now();
    let untraced = || {
        rep(
            || new_sim(args.seed),
            HORIZON_US,
            SpanLog::new(false, start, 0),
        )
    };
    let first = untraced();
    let first_hash = first.sim.trace_hash();
    crate::check_history(out, first.sim.history(), N);
    // Each repetition's readings and set-up time; later repetitions are
    // dropped once read, so their memory is reused by the next.
    let mut reps = vec![(first.marks, first.setup_s)];
    let counted = Instant::now();
    while reps.len() < 2 || counted.elapsed() + start.elapsed() / reps.len() as u32 <= budget {
        let r = untraced();
        if r.sim.trace_hash() != first_hash {
            out.violation("same seed gave a different trace hash between repetitions");
        }
        reps.push((r.marks, r.setup_s));
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.1).collect();
    while setups.len() < SETUPS {
        let t0 = Instant::now();
        drop(std::hint::black_box(new_sim(args.seed)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let d0 = &first.driver;
    out.attempted = d0.completed + d0.aborted;
    out.failed = 0;
    let (mut per_s, mut cpu) = (Vec::new(), Vec::new());
    for (marks, _) in &reps {
        let (a, b) = rates(marks, 1);
        per_s.extend(a);
        cpu.extend(b);
    }
    // Throughput and latency are the simulated system's, in model time:
    // deterministic for a seed and free of host noise. How fast the
    // simulator itself runs is `cpu_us_per_op` here and
    // `sim.events_per_s` in the traced run; over ten runs the
    // simulator's wall rate spread by up to 0.39 of its median on a
    // shared host, wider than any bound a gate may use.
    out.e2e(
        "ops_per_s",
        d0.completed as f64 / (HORIZON_US as f64 / 1e6),
        Some(d0.completed),
    );
    out.note(format!(
        "simulator wall rate {:.1} ops/s (median over repetitions)",
        median(&per_s)
    ));
    out.e2e(
        "cpu_us_per_op",
        median(&cpu),
        Some(d0.completed * reps.len() as u64),
    );
    // Model time ticks in whole µs, so the median latency is
    // interpolated within its 1 µs bin.
    let sorted = |lat: &[u64]| {
        let mut v = lat.to_vec();
        v.sort_unstable();
        v
    };
    let (writes, snaps) = (sorted(&d0.model_writes), sorted(&d0.model_snaps));
    let tails = [
        ("write_p99_us", &writes, 99.0),
        ("snap_p50_us", &snaps, 50.0),
        ("snap_p99_us", &snaps, 99.0),
    ];
    if let Some(m) = interpolated_median(&writes) {
        out.e2e("write_p50_us", m, Some(writes.len() as u64));
    }
    for (name, lat, p) in tails {
        if let Some(v) = percentile(lat, p) {
            out.e2e(name, v as f64, Some(lat.len() as u64));
        }
    }
    out.e2e(
        "fail_ratio",
        d0.aborted as f64 / out.attempted as f64,
        Some(out.attempted),
    );
    out.e2e("setup_s", median(&setups), Some(setups.len() as u64));
    let mut stalls = d0.stalls.clone();
    stalls.sort_unstable();
    if let Some(&s) = stalls.get(stalls.len().saturating_sub(1) / 2) {
        out.e2e("reset_stall_us", s as f64, Some(stalls.len() as u64));
    }
    out.note(format!(
        "{} repetitions of {HORIZON_US} model µs, trace hash {first_hash:#x}",
        reps.len()
    ));
    let resets = first.sim.node(NodeId(0)).resets_done();
    if resets == 0 {
        out.violation("no global reset happened; the workload no longer exercises §5");
    }
    if !args.trace {
        return None;
    }
    let probe = Probe::default();
    let traced = rep(
        || new_timed_sim(args.seed, &probe),
        HORIZON_US,
        SpanLog::new(true, Instant::now(), 1),
    );
    if traced.sim.trace_hash() != first_hash {
        out.violation("traced and untraced runs of the same seed hashed differently");
    }
    let t_cpu = traced.cpu_us() as f64 / traced.driver.completed as f64;
    let u_cpu = first.cpu_us() as f64 / d0.completed as f64;
    crate::note_overhead_values(out, u_cpu, t_cpu);
    let sim = &traced.sim;
    let aborted: u64 = (0..N)
        .map(|i| sim.node(NodeId(i)).inner().aborted_ops())
        .sum();
    let resets = sim.node(NodeId(0)).inner().resets_done();
    out.layer("core.resets", resets as f64, None);
    out.layer(
        "core.aborted_per_reset",
        aborted as f64 / resets.max(1) as f64,
        Some(resets),
    );
    let ev = events(sim);
    out.layer("sim.events_per_s", ev as f64 / traced.wall_s(), Some(ev));
    out.layer(
        "sim.events_per_op",
        ev as f64 / traced.driver.completed as f64,
        Some(ev),
    );
    crate::replay::sim_wrap(out, &traced, probe.read());
    Some(traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_finishes_and_sees_a_reset() {
        let r = rep(
            || new_sim(7),
            60_000,
            SpanLog::new(false, Instant::now(), 0),
        );
        assert!(
            r.sim.node(NodeId(0)).resets_done() >= 1,
            "no reset in 60k model µs"
        );
        assert!(r.driver.aborted > 0, "a reset aborts in-flight operations");
        assert!(r.driver.completed > 1000);
        assert!(r.sim.now() <= 60_000);
        let verdict = sss_checker::check(r.sim.history(), N);
        assert!(
            verdict.violations.is_empty(),
            "{:?}",
            verdict.violations.first()
        );
    }

    #[test]
    fn the_same_seed_repeats_exactly() {
        let a = rep(
            || new_sim(3),
            20_000,
            SpanLog::new(false, Instant::now(), 0),
        );
        let probe = Probe::default();
        let b = rep(
            || new_timed_sim(3, &probe),
            20_000,
            SpanLog::new(true, Instant::now(), 0),
        );
        assert_eq!(a.sim.trace_hash(), b.sim.trace_hash());
        assert_eq!(a.driver.completed, b.driver.completed);
        assert_eq!(a.driver.stalls, b.driver.stalls);
        let c = probe.read();
        assert_eq!(c.rounds, b.sim.metrics().rounds, "every round was timed");
    }
}
