//! Closed-loop client workloads on the runtime backends: `sock-write`
//! (`SocketCluster<Alg1>`, writes only, each client paced to a fixed
//! rate) and `thr-snap` (`Cluster<Alg3>`, writes and snapshots).

use crate::report::Outcome;
use crate::stats::median;
use crate::timed::{CoreCounts, Probe};
use crate::trace::{op_root, SpanLog};
use crate::windows::{mark_window, report_latency, report_rates, Mark};
use crate::Args;
use sss_core::{Alg1, Alg3, Alg3Config};
use sss_net::mix64;
use sss_runtime::{Client, Cluster, ClusterConfig, NetStats, SocketCluster, SocketConfig};
use sss_types::{History, NodeId, Protocol};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Cluster size of both workloads.
pub const N: usize = 5;
/// Nodes the two load threads drive.
const CLIENT_NODES: [usize; 2] = [0, 1];
/// Untimed warm-up before the window.
const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups timed before the window, and again after it; the median of
/// all is reported, so it spans the run.
const SETUPS: usize = 21;

/// Offered writes per second of `sock-write`, over both clients: about
/// a third of what the cluster completes when both cores are free. When
/// the clients run flat out, a host whose other tenants hold a core for
/// whole runs moves the completed rate by up to half (7.1k against 14.4k
/// writes/s in back-to-back runs at the same CPU cost per write); paced
/// below capacity, the rate holds and the cost per write shows.
const SOCK_RATE: u64 = 5_000;

/// Which operations the clients issue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Writes only, each client issuing one per interval (or at once
    /// while behind its schedule).
    PacedWrites(Duration),
    /// Writes and snapshots, half each, in a seeded random order per
    /// client. A fixed write/snapshot alternation would let the two
    /// clients lock into or out of phase for a whole run, and whether
    /// writes overlap the other client's snapshots would then differ
    /// from run to run.
    Even,
}

/// The calls the workloads make on either backend.
pub trait Deployment<P: Protocol> {
    /// A blocking client at `node`.
    fn client(&self, node: NodeId) -> Client<P>;
    /// Message-plane counters.
    fn net_stats(&self) -> NetStats;
    /// The recorded client history.
    fn history(&self) -> History;
    /// Stops every node thread.
    fn stop(self);
}

impl<P: Protocol + 'static> Deployment<P> for Cluster<P> {
    fn client(&self, node: NodeId) -> Client<P> {
        Cluster::client(self, node)
    }
    fn net_stats(&self) -> NetStats {
        Cluster::net_stats(self)
    }
    fn history(&self) -> History {
        Cluster::history(self)
    }
    fn stop(self) {
        self.shutdown();
    }
}

impl<P> Deployment<P> for SocketCluster<P>
where
    P: Protocol + 'static,
    P::Msg: sss_types::WireMsg,
{
    fn client(&self, node: NodeId) -> Client<P> {
        SocketCluster::client(self, node)
    }
    fn net_stats(&self) -> NetStats {
        SocketCluster::net_stats(self)
    }
    fn history(&self) -> History {
        SocketCluster::history(self)
    }
    fn stop(self) {
        self.shutdown();
    }
}

/// What the closed loop measured over its window.
pub struct LoopResult {
    /// Write latencies (ns).
    pub writes: Vec<u64>,
    /// Snapshot latencies (ns).
    pub snaps: Vec<u64>,
    /// Readings across the window.
    pub marks: Vec<Mark>,
    /// Operations completed inside the window.
    pub ok: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Window wall seconds.
    pub wall_s: f64,
    /// Message-plane counters over the window.
    pub net: NetStats,
    /// Protocol-layer counts over the window (traced run only).
    pub core: CoreCounts,
    /// Spans of the traced run.
    pub spans: SpanLog,
}

const WARM: u8 = 0;
const TIMED: u8 = 1;
const STOP: u8 = 2;

fn net_delta(a: NetStats, b: NetStats) -> NetStats {
    NetStats {
        delivered: b.delivered - a.delivered,
        coalesced: b.coalesced - a.coalesced,
        batches: b.batches - a.batches,
        rounds: b.rounds - a.rounds,
        send_syscalls: b.send_syscalls - a.send_syscalls,
        recv_syscalls: b.recv_syscalls - a.recv_syscalls,
        frames_sent: b.frames_sent - a.frames_sent,
        frames_recv: b.frames_recv - a.frames_recv,
        frames_rejected: b.frames_rejected - a.frames_rejected,
        stale_epoch_dropped: b.stale_epoch_dropped - a.stale_epoch_dropped,
    }
}

/// Shared state of the load threads.
struct Load {
    phase: AtomicU8,
    done: AtomicU64,
    mix: Mix,
    seed: u64,
    traced: bool,
    epoch: Instant,
}

/// Runs two closed-loop clients for a warm-up plus `window`. Write
/// values are unique: the client index in the high bits, a sequence
/// number below. A traced run passes the probe its nodes report to.
pub fn drive<P: Protocol + 'static, D: Deployment<P> + Sync>(
    dep: &D,
    mix: Mix,
    seed: u64,
    window: Duration,
    probe: Option<&Probe>,
) -> LoopResult {
    let traced = probe.is_some();
    let core = || probe.map(Probe::read).unwrap_or_default();
    let load = Load {
        phase: AtomicU8::new(WARM),
        done: AtomicU64::new(0),
        mix,
        seed,
        traced,
        epoch: Instant::now(),
    };
    let clients: Vec<Client<P>> = CLIENT_NODES
        .iter()
        .map(|&i| dep.client(NodeId(i)))
        .collect();
    let (per_client, marks, net, core) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let load = &load;
                s.spawn(move || client_loop(c as u64, &client, load))
            })
            .collect();
        std::thread::sleep(WARMUP);
        let (net0, core0) = (dep.net_stats(), core());
        load.phase.store(TIMED, Ordering::SeqCst);
        let marks = mark_window(window, || load.done.load(Ordering::SeqCst));
        load.phase.store(STOP, Ordering::SeqCst);
        let net = net_delta(net0, dep.net_stats());
        let core = core().since(core0);
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, marks, net, core)
    });
    let (first, last) = (marks[0], marks[marks.len() - 1]);
    let mut r = LoopResult {
        writes: Vec::new(),
        snaps: Vec::new(),
        ok: last.ops - first.ops,
        failed: 0,
        wall_s: (last.at - first.at).as_secs_f64(),
        marks,
        net,
        core,
        spans: SpanLog::new(traced, load.epoch, 0),
    };
    for c in per_client {
        r.writes.extend(c.writes);
        r.snaps.extend(c.snaps);
        r.failed += c.failed;

        r.spans.absorb(c.spans);
    }
    r
}

struct ClientResult {
    writes: Vec<u64>,
    snaps: Vec<u64>,
    failed: u64,
    spans: SpanLog,
}

fn client_loop<P: Protocol>(c: u64, client: &Client<P>, load: &Load) -> ClientResult {
    let mut r = ClientResult {
        writes: Vec::new(),
        snaps: Vec::new(),
        failed: 0,
        spans: SpanLog::new(load.traced, load.epoch, c + 1),
    };
    let mut seq = 0u64;
    let mut due = match load.mix {
        Mix::PacedWrites(interval) => {
            Instant::now() + interval * c as u32 / CLIENT_NODES.len() as u32
        }
        Mix::Even => Instant::now(),
    };
    loop {
        let before = load.phase.load(Ordering::SeqCst);
        if before == STOP {
            return r;
        }
        if let Mix::PacedWrites(interval) = load.mix {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            due += interval;
        }
        seq += 1;
        let snap = load.mix == Mix::Even && mix64(load.seed ^ c, seq) & 1 == 1;
        let op = ((c + 1) << 40) | seq;
        let t0 = Instant::now();
        let res = if snap {
            client.snapshot().map(|_| ())
        } else {
            client.write(op)
        };
        let t1 = Instant::now();
        let name = if snap {
            "client.snapshot"
        } else {
            "client.write"
        };
        r.spans.record_with_id(name, op_root(op), 0, op, t0, t1);
        match res {
            Ok(()) if before == TIMED && load.phase.load(Ordering::SeqCst) == TIMED => {
                load.done.fetch_add(1, Ordering::SeqCst);
                let lat = if snap { &mut r.snaps } else { &mut r.writes };
                lat.push((t1 - t0).as_nanos() as u64);
            }
            Ok(()) => {}
            // A failure anywhere, warm-up included, fails the run.
            Err(_) => r.failed += 1,
        }
    }
}

/// Times `SETUPS` constructions (constructor call until clients are
/// handed out) and keeps the last deployment; returns it with the
/// set-up seconds.
fn timed_setup<P: Protocol + 'static, D: Deployment<P>>(
    mut mk: impl FnMut() -> D,
) -> (D, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            D::stop(prev);
        }
        let t0 = Instant::now();
        let dep = mk();
        let clients: Vec<Client<P>> = CLIENT_NODES
            .iter()
            .map(|&i| dep.client(NodeId(i)))
            .collect();
        times.push(t0.elapsed().as_secs_f64());
        drop(clients);
        last = Some(dep);
    }
    (last.expect("at least one set-up"), times)
}

/// Fills the common end-to-end metrics of a closed-loop run.
fn report<P: Protocol + 'static, D: Deployment<P>>(
    out: &mut Outcome,
    dep: D,
    r: &LoopResult,
    check: bool,
) {
    out.attempted = r.ok + r.failed;
    out.failed = r.failed;
    report_rates(out, &r.marks, true);
    report_latency(out, &r.writes, "write_p50_us", "write_p99_us");
    report_latency(out, &r.snaps, "snap_p50_us", "snap_p99_us");
    out.e2e(
        "fail_ratio",
        r.failed as f64 / out.attempted.max(1) as f64,
        Some(out.attempted),
    );
    if r.failed > 0 {
        out.violation(format!("{} client operations failed", r.failed));
    }
    let history = dep.history();
    dep.stop();
    if check {
        crate::check_history(out, &history, N);
    }
}

/// `sock-write`: n = 5 over loopback UDP, two clients writing at
/// [`SOCK_RATE`] between them.
pub fn sock_write(args: &Args, out: &mut Outcome) -> Option<LoopResult> {
    let cfg = || SocketConfig::new(N);
    let interval = Duration::from_secs(CLIENT_NODES.len() as u64) / SOCK_RATE as u32;
    let mix = Mix::PacedWrites(interval);
    untraced(args, out, mix, || {
        SocketCluster::new(cfg(), |id| Alg1::new(id, N))
    });
    args.trace.then(|| {
        let probe = Probe::default();
        let dep = SocketCluster::new(cfg(), |id| probe.wrap(Alg1::new(id, N)));
        traced(args, out, dep, &probe, mix)
    })
}

/// `thr-snap`: n = 5 on in-process threads, two clients mixing writes
/// and Algorithm 3 snapshots half and half.
pub fn thr_snap(args: &Args, out: &mut Outcome) -> Option<LoopResult> {
    let alg = |id| Alg3::new(id, N, Alg3Config::default());
    untraced(args, out, Mix::Even, || {
        Cluster::new(ClusterConfig::new(N), alg)
    });
    args.trace.then(|| {
        let probe = Probe::default();
        let dep = Cluster::new(ClusterConfig::new(N), |id| probe.wrap(alg(id)));
        traced(args, out, dep, &probe, Mix::Even)
    })
}

/// The measured run: timed set-ups, the window, the checks.
fn untraced<P: Protocol + 'static, D: Deployment<P> + Sync>(
    args: &Args,
    out: &mut Outcome,
    mix: Mix,
    mut mk: impl FnMut() -> D,
) {
    let (dep, mut setups) = timed_setup::<P, D>(&mut mk);
    let r = drive(&dep, mix, args.seed, args.window(), None);
    report(out, dep, &r, true);
    let (last, after) = timed_setup::<P, D>(&mut mk);
    last.stop();
    setups.extend(after);
    out.e2e("setup_s", median(&setups), Some(setups.len() as u64));
}

/// The traced run on a deployment of timed protocol instances.
fn traced<P: Protocol + 'static, D: Deployment<P> + Sync>(
    args: &Args,
    out: &mut Outcome,
    dep: D,
    probe: &Probe,
    mix: Mix,
) -> LoopResult {
    let r = drive(&dep, mix, args.seed, args.window(), Some(probe));
    let mut t = Outcome::default();
    report(&mut t, dep, &r, false);
    out.violations.extend(t.violations.iter().cloned());
    crate::note_overhead(out, &t);
    r
}
