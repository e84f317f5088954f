//! `svc-open`: the sharded service under an open loop at a fixed rate.
//! One generator thread submits on a schedule; one collector thread
//! resolves tickets per shard in FIFO order. Latency is timed from each
//! request's due time, so a stalled generator shows as latency.

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::timed::{CoreCounts, Probe};
use crate::trace::{op_root, SpanLog};
use crate::windows::{mark_window, report_latency, report_rates, Mark};
use crate::Args;
use sss_core::Alg1;
use sss_net::mix64;
use sss_service::{Service, ServiceConfig, ServiceReply, ShardConfig, ShardStats, Ticket};
use sss_types::{NodeId, Protocol, SnapshotView, Tagged};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered requests per second.
pub const RATE: u64 = 40_000;
/// Shard groups.
pub const SHARDS: usize = 2;
/// Key space (uniform).
const KEYS: u64 = 1 << 16;
/// Snapshot share of requests, in percent.
const SNAP_PCT: u64 = 5;
/// Untimed warm-up of the schedule before the window.
const WARMUP: Duration = Duration::from_millis(500);
/// The run is invalid if the generator's p99 lateness exceeds this: 25
/// flush intervals behind means the generator could not keep the
/// schedule. Stalls of the host alone reach about 10 ms.
pub const LATE_BOUND_US: f64 = 50_000.0;
/// `ops_per_s` must be within this share of the offered rate.
const RATE_TOLERANCE: f64 = 0.02;
/// Set-ups timed before the window, and again after it; the median of
/// all is reported, so it spans the run.
const SETUPS: usize = 21;
/// Gauge sampling interval of the traced run. `Service::gauges()`
/// summarises every latency sample a shard has recorded, under the lock
/// its batcher records into, so it is sampled sparingly.
const GAUGE_EVERY: Duration = Duration::from_millis(100);
/// Collector poll interval while no ticket is ready.
const POLL: Duration = Duration::from_micros(20);

fn start<P: Protocol + 'static>(seed: u64, mut mk: impl FnMut(NodeId, usize) -> P) -> Service<P> {
    let cfg = ServiceConfig {
        shards: SHARDS,
        seed,
        shard: ShardConfig::default(),
        ..ServiceConfig::default()
    };
    let nodes = cfg.shard.nodes;
    Service::start(cfg, move |_, id| mk(id, nodes))
}

/// The value a write carries: its sequence number above its key, so every
/// value is unique and names its key.
fn value_of(seq: u64, key: u64) -> u64 {
    (seq << 16) | key
}

/// One request in flight between the generator and the collector.
struct Sent {
    seq: u64,
    shard: usize,
    snap: bool,
    timed: bool,
    due: Instant,
    admitted: Instant,
    ticket: Ticket,
}

/// A resolved request, kept for the correctness checks.
struct Resolved {
    seq: u64,
    shard: usize,
    admitted: Instant,
    resolved: Instant,
    view: Option<SnapshotView>,
}

/// What one open-loop run measured.
pub struct OpenResult {
    writes: Vec<u64>,
    snaps: Vec<u64>,
    marks: Vec<Mark>,
    late_us: Vec<u64>,
    ok: u64,
    failed: u64,
    attempted: u64,
    wall_s: f64,
    stats0: Vec<ShardStats>,
    stats1: Vec<ShardStats>,
    /// Protocol-layer counts over the window (traced run only).
    pub core: CoreCounts,
    queue_depths: Vec<u64>,
    /// Per sequence number: the key of a write, `None` for a snapshot.
    keys: Vec<Option<u64>>,
    resolved: Vec<Resolved>,
    /// Spans of the traced run.
    pub spans: SpanLog,
}

/// Key and kind of request `seq`: a pure function of the seed.
fn request(seed: u64, seq: u64) -> (u64, bool) {
    let key = mix64(seed, 2 * seq) % KEYS;
    let snap = mix64(seed, 2 * seq + 1) % 100 < SNAP_PCT;
    (key, snap)
}

/// Runs the open loop for a warm-up plus `window`. A traced run passes
/// the probe its nodes report to.
fn drive<P: Protocol + 'static>(
    svc: &Service<P>,
    seed: u64,
    window: Duration,
    probe: Option<&Probe>,
) -> OpenResult {
    let traced = probe.is_some();
    let core = || probe.map(Probe::read).unwrap_or_default();
    let total = ((WARMUP + window).as_secs_f64() * RATE as f64).round() as u64;
    let warm = (WARMUP.as_secs_f64() * RATE as f64).round() as u64;
    let gap_ns = 1_000_000_000 / RATE;
    let epoch = Instant::now();
    let t_start = epoch + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<Sent>();
    let window_start = t_start + Duration::from_nanos(warm * gap_ns);
    let (gen, col, stats0, core0, marks) = std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut spans = SpanLog::new(traced, epoch, 1);
            let mut late = Vec::with_capacity((total - warm) as usize);
            let mut keys = Vec::with_capacity(total as usize);
            let mut refused = 0u64;
            for seq in 0..total {
                let due = t_start + Duration::from_nanos(seq * gap_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (key, snap) = request(seed, seq);
                keys.push((!snap).then_some(key));
                let shard = svc.shard_for(key);
                let a0 = Instant::now();
                let res = if snap {
                    svc.snapshot(key)
                } else {
                    svc.write(key, value_of(seq, key))
                };
                let a1 = Instant::now();
                let name = if snap {
                    "service.snapshot"
                } else {
                    "service.write"
                };
                spans.record(name, op_root(seq), seq, a0, a1);
                let timed = seq >= warm;
                if timed {
                    late.push(a0.saturating_duration_since(due).as_micros() as u64);
                }
                match res {
                    Ok(ticket) => tx
                        .send(Sent {
                            seq,
                            shard,
                            snap,
                            timed,
                            due,
                            admitted: a0,
                            ticket,
                        })
                        .expect("collector alive"),
                    Err(_) => refused += 1,
                }
            }
            drop(tx);
            (spans, late, keys, refused)
        });
        let col = s.spawn(move || collect(svc, rx, traced, epoch));
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        let (stats0, core0) = (svc.stats(), core());
        // A mark's op count is the number of requests due so far; every
        // one of them must complete or the run fails.
        let marks = mark_window(window, || {
            let since = Instant::now().saturating_duration_since(window_start);
            (since.as_nanos() as u64 / gap_ns).min(total - warm)
        });
        let gen = gen.join().expect("generator panicked");
        let col = col.join().expect("collector panicked");
        (gen, col, stats0, core0, marks)
    });
    let (gen_spans, late_us, keys, refused) = gen;
    let (mut spans, c) = col;
    spans.absorb(gen_spans);
    OpenResult {
        writes: c.writes,
        snaps: c.snaps,
        late_us,
        ok: c.ok,
        failed: c.failed + refused,
        attempted: total - warm,
        wall_s: c.last.saturating_duration_since(window_start).as_secs_f64(),
        marks,
        stats0,
        stats1: svc.stats(),
        core: core().since(core0),
        queue_depths: c.queue_depths,
        keys,
        resolved: c.resolved,
        spans,
    }
}

struct Collected {
    writes: Vec<u64>,
    snaps: Vec<u64>,
    /// When the last timed request resolved.
    last: Instant,
    ok: u64,
    failed: u64,
    queue_depths: Vec<u64>,
    resolved: Vec<Resolved>,
}

/// Resolves tickets per shard in FIFO order until the generator hangs
/// up and every ticket resolved.
fn collect<P: Protocol + 'static>(
    svc: &Service<P>,
    rx: mpsc::Receiver<Sent>,
    traced: bool,
    epoch: Instant,
) -> (SpanLog, Collected) {
    let mut spans = SpanLog::new(traced, epoch, 2);
    let mut c = Collected {
        writes: Vec::new(),
        snaps: Vec::new(),
        last: epoch,
        ok: 0,
        failed: 0,
        queue_depths: Vec::new(),
        resolved: Vec::new(),
    };
    let mut queues: Vec<VecDeque<Sent>> = (0..SHARDS).map(|_| VecDeque::new()).collect();
    let mut open = true;
    let mut next_gauge = Instant::now();
    loop {
        loop {
            match rx.try_recv() {
                Ok(sent) => queues[sent.shard].push_back(sent),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut progress = false;
        for q in &mut queues {
            while let Some(res) = q
                .front()
                .and_then(|h| h.ticket.wait_timeout(Duration::ZERO))
            {
                let now = Instant::now();
                let sent = q.pop_front().expect("head exists");
                progress = true;
                spans.record_with_id("op", op_root(sent.seq), 0, sent.seq, sent.due, now);
                let view = match res {
                    Ok(ServiceReply::Snapshot(v)) => Some(v),
                    Ok(ServiceReply::WriteDone) => None,
                    Err(_) => {
                        c.failed += u64::from(sent.timed);
                        continue;
                    }
                };
                if sent.timed {
                    c.ok += 1;
                    c.last = now;
                    let lat = if sent.snap {
                        &mut c.snaps
                    } else {
                        &mut c.writes
                    };
                    lat.push((now - sent.due).as_nanos() as u64);
                }
                c.resolved.push(Resolved {
                    seq: sent.seq,
                    shard: sent.shard,
                    admitted: sent.admitted,
                    resolved: now,
                    view,
                });
            }
        }
        if traced && Instant::now() >= next_gauge {
            next_gauge += GAUGE_EVERY;
            c.queue_depths
                .extend(svc.gauges().iter().map(|g| g.queue_depth));
        }
        if !open && queues.iter().all(VecDeque::is_empty) {
            return (spans, c);
        }
        if !progress {
            std::thread::sleep(POLL);
        }
    }
}

/// Checks every snapshot reply: each value was written by the benchmark
/// to a key of that shard; one shard's views form a ⪯-chain; and a
/// snapshot admitted after a write to the same register resolved holds
/// that write or a later one. Returns how many writes the freshness
/// check covered (a write's register is learned from the views).
fn check<P: Protocol + 'static>(
    svc: &Service<P>,
    r: &OpenResult,
    out: &mut Outcome,
) -> (usize, usize) {
    let decode = |cell: Tagged| (cell.val >> 16, cell.val & 0xFFFF);
    let mut reg_of: HashMap<u64, usize> = HashMap::new();
    let mut bad = 0usize;
    let mut views: Vec<Vec<&SnapshotView>> = vec![Vec::new(); SHARDS];
    for res in &r.resolved {
        let Some(view) = &res.view else { continue };
        views[res.shard].push(view);
        for (node, cell) in view.iter() {
            if cell.is_bottom() {
                continue;
            }
            let (seq, key) = decode(cell);
            let written = r.keys.get(seq as usize).copied().flatten() == Some(key);
            let home = *reg_of.entry(key).or_insert(node.index());
            if !written || svc.shard_for(key) != res.shard || home != node.index() {
                bad += 1;
            }
        }
    }
    if bad > 0 {
        out.violation(format!(
            "{bad} snapshot cells hold values the benchmark never wrote there"
        ));
    }
    for (shard, vs) in views.iter_mut().enumerate() {
        vs.sort_by_key(|v| v.timestamps().iter().sum::<u64>());
        let broken = vs
            .windows(2)
            .filter(|w| {
                w[0].iter()
                    .zip(w[1].iter())
                    .any(|((_, a), (_, b))| a.ts > b.ts)
            })
            .count();
        if broken > 0 {
            out.violation(format!(
                "shard {shard}: {broken} pairs of snapshot views are not ⪯-ordered"
            ));
        }
    }
    // Freshness: sweep writes (at resolution) and snapshots (at
    // admission) in time order, keeping the newest resolved write per
    // register.
    enum Ev<'a> {
        Write(usize, u64),
        Snap(&'a SnapshotView),
    }
    let mut events: Vec<(Instant, usize, Ev<'_>)> = Vec::new();
    let mut covered = 0;
    let mut writes = 0;
    for res in &r.resolved {
        match &res.view {
            Some(v) => events.push((res.admitted, res.shard, Ev::Snap(v))),
            None => {
                writes += 1;
                let key = r.keys[res.seq as usize].expect("a write has a key");
                if let Some(&reg) = reg_of.get(&key) {
                    covered += 1;
                    events.push((res.resolved, res.shard, Ev::Write(reg, res.seq)));
                }
            }
        }
    }
    // Snapshots sort before writes at equal instants: a write resolved at
    // the very instant of admission is not required to be seen.
    events.sort_by_key(|e| (e.0, matches!(e.2, Ev::Write(..))));
    let nodes = ShardConfig::default().nodes;
    let mut newest = vec![vec![None::<u64>; nodes]; SHARDS];
    let mut stale = 0;
    for (_, shard, ev) in &events {
        match ev {
            Ev::Write(reg, seq) => {
                let slot = &mut newest[*shard][*reg];
                *slot = Some(slot.map_or(*seq, |s| s.max(*seq)));
            }
            Ev::Snap(view) => {
                for (node, cell) in view.iter() {
                    let need = newest[*shard][node.index()];
                    let seen = (!cell.is_bottom()).then(|| decode(cell).0);
                    if need.is_some_and(|n| seen.is_none_or(|s| s < n)) {
                        stale += 1;
                    }
                }
            }
        }
    }
    if stale > 0 {
        out.violation(format!(
            "{stale} snapshot cells miss a write that resolved before admission"
        ));
    }
    (covered, writes)
}

fn timed_setup(seed: u64) -> (Service<Alg1>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last: Option<Service<Alg1>> = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            prev.shutdown();
        }
        let t0 = Instant::now();
        let svc = start(seed, Alg1::new);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(svc);
    }
    (last.expect("at least one set-up"), times)
}

fn late_p99(r: &OpenResult) -> f64 {
    let mut late = r.late_us.clone();
    late.sort_unstable();
    percentile(&late, 99.0).unwrap_or(u64::MAX) as f64
}

fn report<P: Protocol + 'static>(
    out: &mut Outcome,
    svc: &Service<P>,
    r: &OpenResult,
    check_outputs: bool,
) {
    out.attempted = r.attempted;
    out.failed = r.failed;
    // Every sub-window offers the same requests, so throughput is
    // measured over the whole window, up to the last resolution.
    let ops_per_s = r.ok as f64 / r.wall_s;
    out.e2e("ops_per_s", ops_per_s, Some(r.ok));
    report_rates(out, &r.marks, false);
    report_latency(out, &r.writes, "write_p50_us", "write_p99_us");
    report_latency(out, &r.snaps, "snap_p50_us", "snap_p99_us");
    out.e2e(
        "fail_ratio",
        r.failed as f64 / r.attempted as f64,
        Some(r.attempted),
    );
    if r.failed > 0 {
        out.violation(format!("{} requests failed or were refused", r.failed));
    }
    let late = late_p99(r);
    out.note(format!(
        "generator lateness p99 {late} µs (bound {LATE_BOUND_US} µs)"
    ));
    if late > LATE_BOUND_US {
        out.violation(format!(
            "generator ran {late} µs late at p99: the open loop did not hold its schedule"
        ));
    }
    if (ops_per_s / RATE as f64 - 1.0).abs() > RATE_TOLERANCE {
        out.violation(format!(
            "completed {ops_per_s:.0} req/s against an offered {RATE}"
        ));
    }
    if check_outputs {
        let t0 = Instant::now();
        let (covered, writes) = check(svc, r, out);
        out.note(format!(
            "check_s {:.3} (snapshot replies; freshness covered {covered} of {writes} writes)",
            t0.elapsed().as_secs_f64()
        ));
    }
}

/// Runs the workload; with `--trace 1`, a traced second run fills the
/// service-layer metrics.
pub fn run(args: &Args, out: &mut Outcome) -> Option<OpenResult> {
    let (svc, mut setups) = timed_setup(args.seed);
    let r = drive(&svc, args.seed, args.window(), None);
    report(out, &svc, &r, true);
    svc.shutdown();
    let (last, after) = timed_setup(args.seed);
    last.shutdown();
    setups.extend(after);
    out.e2e("setup_s", median(&setups), Some(setups.len() as u64));
    if !args.trace {
        return None;
    }
    let probe = Probe::default();
    let svc = start(args.seed, |id, n| probe.wrap(Alg1::new(id, n)));
    let t = drive(&svc, args.seed, args.window(), Some(&probe));
    let mut traced = Outcome::default();
    report(&mut traced, &svc, &t, false);
    svc.shutdown();
    out.violations.extend(traced.violations.iter().cloned());
    crate::note_overhead(out, &traced);
    let mut admit: Vec<u64> = t.spans.durations("service.write");
    admit.extend(t.spans.durations("service.snapshot"));
    admit.sort_unstable();
    out.layer(
        "service.admit_ns_p50",
        percentile(&admit, 50.0).unwrap_or(0) as f64,
        Some(admit.len() as u64),
    );
    let sum = |s: &[ShardStats], f: fn(&ShardStats) -> u64| s.iter().map(f).sum::<u64>();
    let absorbed = sum(&t.stats1, |s| s.absorbed) - sum(&t.stats0, |s| s.absorbed);
    let pops = sum(&t.stats1, |s| s.protocol_ops) - sum(&t.stats0, |s| s.protocol_ops);
    let overloaded = sum(&t.stats1, |s| s.overloaded) - sum(&t.stats0, |s| s.overloaded);
    out.layer(
        "service.collapse",
        absorbed as f64 / pops.max(1) as f64,
        Some(pops),
    );
    out.layer(
        "service.protocol_ops_per_s",
        pops as f64 / t.wall_s,
        Some(pops),
    );
    let mut depths = t.queue_depths.clone();
    depths.sort_unstable();
    out.layer(
        "service.queue_depth_p90",
        percentile(&depths, 90.0).unwrap_or(0) as f64,
        Some(depths.len() as u64),
    );
    out.layer("service.overloaded", overloaded as f64, None);
    out.layer(
        "gen.late_p99_us",
        late_p99(&t),
        Some(t.late_us.len() as u64),
    );
    Some(t)
}

/// Wall seconds of the traced window.
pub fn wall_s(r: &OpenResult) -> f64 {
    r.wall_s
}

/// Requests completed in the traced window.
pub fn requests(r: &OpenResult) -> u64 {
    r.ok
}
