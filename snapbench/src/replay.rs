//! Per-layer metrics of the traced run, and the layer replay.
//!
//! The protocol layer is measured inside the traced run itself: its
//! nodes are [`Timed`](crate::timed::Timed), so every `invoke`,
//! `on_message` and `on_round` call is timed and its sends counted with
//! the run's own message mix. `Outbox`, `NodeInbox` and the wire codec
//! are invoked inside the runtime, out of the benchmark's reach, so
//! their per-call cost is timed by a replay: n instances of the
//! workload's protocol driven through its operation mix by the
//! benchmark's own delivery loop, with every send passed through
//! `Outbox`, the codec (for `sock-write`) and `NodeInbox`. The replay
//! must deliver as many messages per operation as the real run, within
//! [`FIDELITY`], for its unit costs to stand for that run. Unit costs
//! times the real run's per-op counts give the CPU split.

use crate::closed::LoopResult;
use crate::report::Outcome;
use crate::simwrap::Rep;
use crate::svc::OpenResult;
use crate::timed::{CoreCounts, Timed};
use sss_core::{Alg1, Alg3, Alg3Config};
use sss_runtime::{CtlMsg, NetStats, NodeInbox};
use sss_types::{
    decode_frames, encode_frame, DecodedFrame, Effects, MsgKind, NodeId, OpId, Outbox, Protocol,
    SnapshotOp, WireMsg,
};
use std::time::{Duration, Instant};

/// Wall budget of one replay.
const BUDGET: Duration = Duration::from_millis(800);
/// Operations one replay aims to complete.
const TARGET_OPS: u64 = 20_000;
/// Messages applied per inbox drain (the runtime's default batch cap).
const MAX_BATCH: usize = 64;
/// The replay's deliveries per op may differ from the real run's by at
/// most this share of the real run's.
const FIDELITY: f64 = 0.25;

fn per(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Counters and timings of one replay.
#[derive(Default, Debug, Clone)]
struct Layers {
    ops: u64,
    msgs: u64,
    pushes: u64,
    outbox_ns: u64,
    coalesced: u64,
    inbox_ns: u64,
    frames: u64,
    bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
}

impl Layers {
    fn outbox_ns(&self) -> f64 {
        per(self.outbox_ns, self.pushes)
    }
    fn inbox_ns(&self) -> f64 {
        per(self.inbox_ns, self.msgs)
    }
    fn encode_ns(&self) -> f64 {
        per(self.encode_ns, self.frames)
    }
    fn decode_ns(&self) -> f64 {
        per(self.decode_ns, self.frames)
    }
}

/// Moves drained outbox messages into the destination inboxes.
trait Carrier<M> {
    fn carry(
        &mut self,
        from: usize,
        msgs: &mut Vec<(NodeId, M)>,
        inboxes: &[NodeInbox<M>],
        l: &mut Layers,
    );
}

/// In-process hand-off, as on the threads backend.
struct Direct;

impl<M> Carrier<M> for Direct {
    fn carry(
        &mut self,
        from: usize,
        msgs: &mut Vec<(NodeId, M)>,
        inboxes: &[NodeInbox<M>],
        l: &mut Layers,
    ) {
        let t0 = Instant::now();
        for (to, m) in msgs.drain(..) {
            inboxes[to.index()].push_data(NodeId(from), m);
        }
        l.inbox_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Encode into one packed datagram per peer, decode, then hand off, as
/// on the socket backend.
struct Wire {
    bufs: Vec<Vec<u8>>,
}

impl<M: WireMsg> Carrier<M> for Wire {
    fn carry(
        &mut self,
        from: usize,
        msgs: &mut Vec<(NodeId, M)>,
        inboxes: &[NodeInbox<M>],
        l: &mut Layers,
    ) {
        let t0 = Instant::now();
        for (to, m) in msgs.iter() {
            let buf = &mut self.bufs[to.index()];
            let before = buf.len();
            encode_frame(NodeId(from), m, buf).expect("a protocol message fits a datagram");
            l.frames += 1;
            l.bytes += (buf.len() - before) as u64;
        }
        l.encode_ns += t0.elapsed().as_nanos() as u64;
        msgs.clear();
        let n = inboxes.len();
        for (to, buf) in self.bufs.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            let decoded: Vec<(NodeId, M)> = decode_frames::<M>(buf, n)
                .filter_map(|f| match f {
                    Ok(DecodedFrame::Msg { from, msg }) => Some((from, msg)),
                    _ => None,
                })
                .collect();
            let t1 = Instant::now();
            l.decode_ns += (t1 - t0).as_nanos() as u64;
            for (from, m) in decoded {
                inboxes[to].push_data(from, m);
            }
            l.inbox_ns += t1.elapsed().as_nanos() as u64;
            buf.clear();
        }
    }
}

/// What the replay drives: the protocol, its clients and their mix.
struct Plan {
    n: usize,
    /// Nodes that act as closed-loop clients.
    clients: Vec<usize>,
    /// Every `snap_every`-th op of a client is a snapshot (`0` = never).
    snap_every: u64,
    /// Whether clients invoke in waves, all together once every client's
    /// previous op completed (as a shard's group commit does), rather
    /// than each right after its own previous op.
    waves: bool,
    /// Per-node `do forever` iterations per completed op in the real run.
    rounds_per_op: f64,
}

fn replay<P: Protocol, C: Carrier<P::Msg>>(
    plan: &Plan,
    mut mk: impl FnMut(NodeId) -> P,
    mut carrier: C,
) -> Layers {
    let n = plan.n;
    let mut nodes: Vec<P> = (0..n).map(|i| mk(NodeId(i))).collect();
    let inboxes: Vec<NodeInbox<P::Msg>> = (0..n).map(|_| NodeInbox::new()).collect();
    let mut outboxes: Vec<Outbox<P::Msg>> = (0..n).map(|_| Outbox::new(n)).collect();
    // Per client node: ops issued and the outstanding op's id, if any.
    let mut clients: Vec<Option<(u64, Option<OpId>)>> = vec![None; n];
    let mut fx: Effects<P::Msg> = Effects::new();
    let mut ctl: Vec<CtlMsg> = Vec::new();
    let mut data: Vec<(NodeId, P::Msg)> = Vec::new();
    let mut wire_out: Vec<(NodeId, P::Msg)> = Vec::new();
    let mut l = Layers::default();
    let mut next_op = 0u64;
    let mut credit = 0.0f64;
    let start = Instant::now();

    // Invokes the next op of client `i`, which has issued `issued`.
    let invoke = |i: usize, node: &mut P, issued: u64, next_op: &mut u64, fx: &mut Effects<_>| {
        let snap = plan.snap_every > 0 && issued.is_multiple_of(plan.snap_every);
        let op = if snap {
            SnapshotOp::Snapshot
        } else {
            SnapshotOp::Write(((i as u64 + 1) << 40) | issued)
        };
        let id = OpId(*next_op);
        *next_op += 1;
        node.invoke(id, op, fx);
        (issued, Some(id))
    };

    // Applies the effects of node `i`'s last step: sends into its outbox,
    // a completion back to its client (which invokes the next op).
    macro_rules! settle {
        ($i:expr) => {{
            let i = $i;
            loop {
                let t0 = Instant::now();
                for (to, m) in fx.drain_sends() {
                    l.pushes += 1;
                    outboxes[i].push(to, m);
                }
                l.outbox_ns += t0.elapsed().as_nanos() as u64;
                let mut again = false;
                let done: Vec<OpId> = fx.drain_completions().map(|(id, _)| id).collect();
                if let Some((issued, Some(pending))) = clients[i] {
                    if done.contains(&pending) {
                        l.ops += 1;
                        credit += plan.rounds_per_op;
                        clients[i] = Some((issued, None));
                        if !plan.waves {
                            let next = invoke(i, &mut nodes[i], issued + 1, &mut next_op, &mut fx);
                            clients[i] = Some(next);
                            again = true;
                        }
                    }
                }
                if !again {
                    break;
                }
            }
            wire_out.extend(outboxes[i].drain());
            carrier.carry(i, &mut wire_out, &inboxes, &mut l);
        }};
    }

    for &c in &plan.clients {
        clients[c] = Some(invoke(c, &mut nodes[c], 1, &mut next_op, &mut fx));
        settle!(c);
    }
    while l.ops < TARGET_OPS && start.elapsed() < BUDGET {
        if plan.waves && clients.iter().flatten().all(|c| c.1.is_none()) {
            for &c in &plan.clients {
                let issued = clients[c].map_or(0, |c| c.0);
                clients[c] = Some(invoke(c, &mut nodes[c], issued + 1, &mut next_op, &mut fx));
                settle!(c);
            }
        }
        let mut delivered = false;
        for i in 0..n {
            let t0 = Instant::now();
            inboxes[i].drain(&mut ctl, &mut data, MAX_BATCH, t0);
            if data.is_empty() {
                continue;
            }
            l.inbox_ns += t0.elapsed().as_nanos() as u64;
            delivered = true;
            l.msgs += data.len() as u64;
            for (from, m) in data.drain(..) {
                nodes[i].on_message(from, m, &mut fx);
            }
            settle!(i);
        }
        if !delivered || credit >= 1.0 {
            credit -= 1.0;
            for i in 0..n {
                nodes[i].on_round(&mut fx);
                settle!(i);
            }
        }
    }
    l.coalesced = outboxes.iter().map(Outbox::coalesced).sum();
    l
}

/// The protocol-layer metrics of the traced run, measured in it.
fn core_layers(out: &mut Outcome, c: &CoreCounts) {
    out.layer(
        "core.invoke_ns",
        per(c.invoke_ns, c.invokes),
        Some(c.invokes),
    );
    out.layer(
        "core.on_message_ns",
        per(c.on_message_ns, c.msgs),
        Some(c.msgs),
    );
    out.layer(
        "core.on_round_ns",
        per(c.on_round_ns, c.rounds),
        Some(c.rounds),
    );
    let write_kinds = [MsgKind::Write, MsgKind::WriteAck];
    let snap_kinds = [
        MsgKind::Snapshot,
        MsgKind::SnapshotAck,
        MsgKind::Save,
        MsgKind::SaveAck,
        MsgKind::Snap,
        MsgKind::End,
        MsgKind::RbEcho,
        MsgKind::RbAck,
    ];
    out.layer(
        "core.msgs_per_write",
        per(c.sent_of(&write_kinds), c.writes),
        Some(c.writes),
    );
    if c.snaps > 0 {
        out.layer(
            "core.msgs_per_snap",
            per(c.sent_of(&snap_kinds), c.snaps),
            Some(c.snaps),
        );
    }
    if c.snaps_done > 0 {
        out.layer(
            "core.rounds_per_snap",
            per(c.snap_rounds, c.snaps_done),
            Some(c.snaps_done),
        );
    }
    out.layer(
        "core.gossip_share",
        per(c.sent_of(&[MsgKind::Gossip]), c.total_sent()),
        Some(c.total_sent()),
    );
}

/// The protocol layer's share of one client op's CPU, in µs.
fn core_parts(c: &CoreCounts, ops: u64) -> Vec<(&'static str, f64)> {
    let us = |ns: u64| per(ns, ops) / 1e3;
    vec![
        ("core.invoke", us(c.invoke_ns)),
        ("core.on_message", us(c.on_message_ns)),
        ("core.on_round", us(c.on_round_ns)),
    ]
}

/// Records the replay's layer metrics, checks its deliveries per op
/// against the real run's `real_delivered`, and returns the message
/// plane's share of one client op's CPU: unit costs times the real
/// run's sends (`sent`), deliveries and frames per client op.
fn replay_layers(
    out: &mut Outcome,
    l: &Layers,
    real_delivered: f64,
    sent: f64,
    delivered: f64,
    frames: (f64, f64),
) -> Vec<(&'static str, f64)> {
    out.layer(
        "outbox.coalesce_ratio",
        per(l.coalesced, l.pushes),
        Some(l.pushes),
    );
    out.layer("inbox.drain_ns_per_msg", l.inbox_ns(), Some(l.msgs));
    if l.frames > 0 {
        out.layer("wire.encode_ns_per_frame", l.encode_ns(), Some(l.frames));
        out.layer("wire.decode_ns_per_frame", l.decode_ns(), Some(l.frames));
        out.layer(
            "wire.bytes_per_frame",
            per(l.bytes, l.frames),
            Some(l.frames),
        );
    }
    let replayed = per(l.msgs, l.ops);
    out.note(format!(
        "replay: {} ops, {replayed:.2} deliveries/op vs {real_delivered:.2} in the real run",
        l.ops
    ));
    if (replayed / real_delivered - 1.0).abs() > FIDELITY {
        out.violation(format!(
            "layer replay delivered {replayed:.2} msgs/op against {real_delivered:.2} in the run (more than {FIDELITY} apart)"
        ));
    }
    let us = |ns: f64, count: f64| ns * count / 1e3;
    let mut parts = vec![
        ("outbox.push", us(l.outbox_ns(), sent)),
        ("inbox.push_drain", us(l.inbox_ns(), delivered)),
    ];
    if l.frames > 0 {
        parts.push(("wire.encode", us(l.encode_ns(), frames.0)));
        parts.push(("wire.decode", us(l.decode_ns(), frames.1)));
    }
    parts
}

/// Prints the CPU split of one client op and records its remainder.
fn split(out: &mut Outcome, parts: Vec<(&'static str, f64)>) {
    let traced_cpu_us = out
        .layers
        .iter()
        .find(|m| m.name == "trace.cpu_us_per_op")
        .map_or(0.0, |m| m.value);
    let attributed: f64 = parts.iter().map(|p| p.1).sum();
    let unattributed = traced_cpu_us - attributed;
    let shown: Vec<String> = parts
        .iter()
        .chain(&[("unattributed", unattributed)])
        .map(|(k, v)| format!("{k} {v:.3}"))
        .collect();
    out.note(format!(
        "CPU split per op (µs, sums to traced cpu_us_per_op {traced_cpu_us:.3}): {}",
        shown.join(" + ")
    ));
    out.layer("split.unattributed_us_per_op", unattributed, None);
}

fn net_layers(out: &mut Outcome, net: &NetStats, ops: u64, wall_s: f64) {
    let per_op = |a: u64| per(a, ops);
    out.layer("runtime.delivered_per_op", per_op(net.delivered), Some(ops));
    out.layer(
        "runtime.batch_mean",
        per(net.delivered, net.batches),
        Some(net.batches),
    );
    out.layer("runtime.coalesced_per_op", per_op(net.coalesced), Some(ops));
    out.layer(
        "runtime.rounds_per_s",
        net.rounds as f64 / wall_s,
        Some(net.rounds),
    );
    out.layer("runtime.frames_per_op", per_op(net.frames_sent), Some(ops));
    out.layer(
        "runtime.syscalls_per_op",
        per_op(net.send_syscalls + net.recv_syscalls),
        Some(ops),
    );
    if net.send_syscalls > 0 {
        out.layer(
            "runtime.frames_per_syscall",
            per(net.frames_sent, net.send_syscalls),
            Some(net.send_syscalls),
        );
    }
}

/// A closed-loop runtime workload: protocol metrics from the run, a
/// replay of its mix through `carrier`, and the split.
fn closed_loop<P: Protocol, C: Carrier<P::Msg>>(
    out: &mut Outcome,
    t: &LoopResult,
    snap_every: u64,
    mk: impl FnMut(NodeId) -> P,
    carrier: C,
) {
    let n = crate::closed::N;
    let plan = Plan {
        n,
        clients: vec![0, 1],
        snap_every,
        waves: false,
        rounds_per_op: per(t.net.rounds, t.ok * n as u64),
    };
    let l = replay(&plan, mk, carrier);
    net_layers(out, &t.net, t.ok, t.wall_s);
    core_layers(out, &t.core);
    let per_op = |a: u64| per(a, t.ok);
    let mut parts = core_parts(&t.core, t.ok);
    parts.extend(replay_layers(
        out,
        &l,
        per_op(t.net.delivered),
        per_op(t.core.total_sent()),
        per_op(t.net.delivered),
        (per_op(t.net.frames_sent), per_op(t.net.frames_recv)),
    ));
    split(out, parts);
}

/// `sock-write`: Algorithm 1, two writing clients, through the codec.
pub fn sock_write(out: &mut Outcome, t: &LoopResult) {
    let n = crate::closed::N;
    let wire = Wire {
        bufs: vec![Vec::new(); n],
    };
    closed_loop(out, t, 0, |id| Alg1::new(id, n), wire);
}

/// `thr-snap`: Algorithm 3, two clients, half writes and half snapshots.
pub fn thr_snap(out: &mut Outcome, t: &LoopResult) {
    let n = crate::closed::N;
    closed_loop(
        out,
        t,
        2,
        |id| Alg3::new(id, n, Alg3Config::default()),
        Direct,
    );
}

/// `svc-open`: each shard group runs Algorithm 1 at 3 nodes; a flush
/// issues one write per register and one snapshot together, so the
/// replay invokes in waves, every node at once, and about every fourth
/// protocol op is a snapshot. Per-op counts are per client request; the
/// replay is checked per protocol op.
pub fn svc_open(out: &mut Outcome, t: &OpenResult) {
    let cfg = sss_service::ShardConfig::default();
    let n = cfg.nodes;
    let c = &t.core;
    let requests = crate::svc::requests(t);
    let wall_s = crate::svc::wall_s(t);
    // Rounds are paced by the clock, not by load.
    let node_rounds = wall_s / cfg.round_interval.as_secs_f64() * (n * crate::svc::SHARDS) as f64;
    let plan = Plan {
        n,
        clients: (0..n).collect(),
        snap_every: 4,
        waves: true,
        rounds_per_op: node_rounds / (c.invokes.max(1) * n as u64) as f64,
    };
    let l = replay(&plan, |id| Alg1::new(id, n), Direct);
    core_layers(out, c);
    let per_req = |a: u64| per(a, requests);
    let mut parts = core_parts(c, requests);
    parts.extend(replay_layers(
        out,
        &l,
        per(c.msgs, c.invokes),
        per_req(c.total_sent()),
        per_req(c.msgs),
        (0.0, 0.0),
    ));
    let admit_ns: u64 = t.spans.durations("service.write").iter().sum::<u64>()
        + t.spans.durations("service.snapshot").iter().sum::<u64>();
    parts.push(("service.admit", per_req(admit_ns) / 1e3));
    split(out, parts);
}

/// `sim-wrap`: the simulator has no outbox, inbox or codec; the split is
/// the protocol layer, measured in the traced simulation, and the rest.
pub fn sim_wrap(out: &mut Outcome, t: &Rep<Timed<crate::simwrap::P>>, c: CoreCounts) {
    core_layers(out, &c);
    split(out, core_parts(&c, t.driver.completed));
}
