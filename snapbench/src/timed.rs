//! A timing wrapper around a protocol instance. `Timed<P>` delegates
//! every `Protocol` call to `P` and adds the call's duration, the
//! messages it sent by kind, and the rounds a snapshot took to its
//! node's [`Tally`]. The traced run deploys `Timed<P>` in place of `P`,
//! so the protocol layer is measured inside the real run, with the run's
//! own message mix, on every backend.

use sss_types::{
    Effects, MsgKind, NodeId, OpId, OpResponse, ProtoMsg, Protocol, ProtocolStats, SnapshotOp,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One node's counters. Only the node's own thread writes them.
#[derive(Default)]
struct Tally {
    invokes: AtomicU64,
    invoke_ns: AtomicU64,
    writes: AtomicU64,
    snaps: AtomicU64,
    msgs: AtomicU64,
    on_message_ns: AtomicU64,
    rounds: AtomicU64,
    on_round_ns: AtomicU64,
    sent: [AtomicU64; MsgKind::COUNT],
    snaps_done: AtomicU64,
    snap_rounds: AtomicU64,
}

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Relaxed);
}

/// Protocol-layer counts summed over a deployment's nodes.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct CoreCounts {
    /// `invoke` calls.
    pub invokes: u64,
    /// ns spent in them.
    pub invoke_ns: u64,
    /// Of the invokes, writes.
    pub writes: u64,
    /// Of the invokes, snapshots.
    pub snaps: u64,
    /// `on_message` calls (messages delivered).
    pub msgs: u64,
    /// ns spent in them.
    pub on_message_ns: u64,
    /// `on_round` calls.
    pub rounds: u64,
    /// ns spent in them.
    pub on_round_ns: u64,
    /// Messages sent, by kind.
    pub sent: [u64; MsgKind::COUNT],
    /// Snapshots completed.
    pub snaps_done: u64,
    /// The completing node's rounds between their invoke and completion.
    pub snap_rounds: u64,
}

impl CoreCounts {
    /// The counts accumulated since `earlier`.
    pub fn since(self, earlier: CoreCounts) -> CoreCounts {
        let mut sent = self.sent;
        for (s, e) in sent.iter_mut().zip(earlier.sent) {
            *s -= e;
        }
        CoreCounts {
            invokes: self.invokes - earlier.invokes,
            invoke_ns: self.invoke_ns - earlier.invoke_ns,
            writes: self.writes - earlier.writes,
            snaps: self.snaps - earlier.snaps,
            msgs: self.msgs - earlier.msgs,
            on_message_ns: self.on_message_ns - earlier.on_message_ns,
            rounds: self.rounds - earlier.rounds,
            on_round_ns: self.on_round_ns - earlier.on_round_ns,
            sent,
            snaps_done: self.snaps_done - earlier.snaps_done,
            snap_rounds: self.snap_rounds - earlier.snap_rounds,
        }
    }

    /// Messages sent of the given kinds.
    pub fn sent_of(&self, kinds: &[MsgKind]) -> u64 {
        kinds.iter().map(|k| self.sent[k.index()]).sum()
    }

    /// Messages sent, all kinds.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }
}

/// The tallies of every node a traced deployment built.
#[derive(Default)]
pub struct Probe {
    nodes: Mutex<Vec<Arc<Tally>>>,
}

impl Probe {
    /// Wraps one protocol instance, giving it a tally of its own.
    pub fn wrap<P: Protocol>(&self, inner: P) -> Timed<P> {
        let tally = Arc::new(Tally::default());
        self.nodes
            .lock()
            .expect("probe lock")
            .push(Arc::clone(&tally));
        Timed {
            inner,
            tally,
            held: Vec::new(),
            done: Vec::new(),
            rounds: 0,
            snap: None,
        }
    }

    /// The counts so far, summed over nodes.
    pub fn read(&self) -> CoreCounts {
        let mut c = CoreCounts::default();
        for t in self.nodes.lock().expect("probe lock").iter() {
            c.invokes += t.invokes.load(Relaxed);
            c.invoke_ns += t.invoke_ns.load(Relaxed);
            c.writes += t.writes.load(Relaxed);
            c.snaps += t.snaps.load(Relaxed);
            c.msgs += t.msgs.load(Relaxed);
            c.on_message_ns += t.on_message_ns.load(Relaxed);
            c.rounds += t.rounds.load(Relaxed);
            c.on_round_ns += t.on_round_ns.load(Relaxed);
            for (s, a) in c.sent.iter_mut().zip(&t.sent) {
                *s += a.load(Relaxed);
            }
            c.snaps_done += t.snaps_done.load(Relaxed);
            c.snap_rounds += t.snap_rounds.load(Relaxed);
        }
        c
    }
}

/// A protocol instance whose calls are timed and counted.
pub struct Timed<P: Protocol> {
    inner: P,
    tally: Arc<Tally>,
    /// Sends set aside around a call (reused buffer).
    held: Vec<(NodeId, P::Msg)>,
    /// Completions set aside while looking for a snapshot's (reused).
    done: Vec<(OpId, OpResponse)>,
    /// This node's `on_round` calls.
    rounds: u64,
    /// The outstanding snapshot and the node's rounds when it started.
    snap: Option<(OpId, u64)>,
}

impl<P: Protocol> Timed<P> {
    /// The wrapped instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Runs one call, timing only the call itself, and counts the
    /// messages it sent and the snapshot it completed. Sends already in
    /// `fx` are set aside first, so each is counted by the call that
    /// made it; everything is put back in order.
    fn step(
        &mut self,
        fx: &mut Effects<P::Msg>,
        call: impl FnOnce(&mut P, &mut Effects<P::Msg>),
    ) -> u64 {
        self.held.extend(fx.drain_sends());
        let before = self.held.len();
        let t0 = Instant::now();
        call(&mut self.inner, fx);
        let ns = t0.elapsed().as_nanos() as u64;
        self.held.extend(fx.drain_sends());
        for (_, m) in &self.held[before..] {
            add(&self.tally.sent[m.kind().index()], 1);
        }
        for (to, m) in self.held.drain(..) {
            fx.send(to, m);
        }
        if let Some((id, r0)) = self.snap {
            self.done.extend(fx.drain_completions());
            if self.done.iter().any(|d| d.0 == id) {
                add(&self.tally.snaps_done, 1);
                add(&self.tally.snap_rounds, self.rounds - r0);
                self.snap = None;
            }
            for (id, resp) in self.done.drain(..) {
                fx.complete(id, resp);
            }
        }
        ns
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn on_round(&mut self, fx: &mut Effects<Self::Msg>) {
        self.rounds += 1;
        let ns = self.step(fx, |p, fx| p.on_round(fx));
        add(&self.tally.rounds, 1);
        add(&self.tally.on_round_ns, ns);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        let ns = self.step(fx, |p, fx| p.on_message(from, msg, fx));
        add(&self.tally.msgs, 1);
        add(&self.tally.on_message_ns, ns);
    }

    fn invoke(&mut self, id: OpId, op: SnapshotOp, fx: &mut Effects<Self::Msg>) {
        let kind = match op {
            SnapshotOp::Write(_) => &self.tally.writes,
            SnapshotOp::Snapshot => {
                self.snap = Some((id, self.rounds));
                &self.tally.snaps
            }
        };
        add(kind, 1);
        let ns = self.step(fx, |p, fx| p.invoke(id, op, fx));
        add(&self.tally.invokes, 1);
        add(&self.tally.invoke_ns, ns);
    }

    fn is_busy(&self) -> bool {
        self.inner.is_busy()
    }

    fn corrupt(&mut self, rng: &mut dyn rand::RngCore) {
        self.inner.corrupt(rng);
    }

    fn restart(&mut self) {
        self.inner.restart();
    }

    fn local_invariants_hold(&self) -> bool {
        self.inner.local_invariants_hold()
    }

    fn stats(&self) -> ProtocolStats {
        self.inner.stats()
    }

    fn epoch_probe(&self) -> Option<u64> {
        self.inner.epoch_probe()
    }

    fn wrapping_probe(&self) -> bool {
        self.inner.wrapping_probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::Alg1;

    #[test]
    fn counts_each_call_and_leaves_its_effects_intact() {
        let probe = Probe::default();
        let n = 3;
        let mut nodes: Vec<Timed<Alg1>> = (0..n)
            .map(|i| probe.wrap(Alg1::new(NodeId(i), n)))
            .collect();
        let mut fx = Effects::new();
        nodes[0].invoke(OpId(1), SnapshotOp::Write(7), &mut fx);
        let sends = fx.take_sends();
        let c = probe.read();
        assert_eq!((c.invokes, c.writes, c.snaps), (1, 1, 0));
        assert_eq!(
            c.total_sent(),
            sends.len() as u64,
            "every send counted once"
        );
        assert!(c.sent_of(&[MsgKind::Write]) > 0);
        let mut done = 0;
        let mut queue: Vec<(NodeId, NodeId, _)> = sends
            .into_iter()
            .map(|(to, m)| (NodeId(0), to, m))
            .collect();
        while let Some((from, to, m)) = queue.pop() {
            nodes[to.index()].on_message(from, m, &mut fx);
            queue.extend(fx.drain_sends().map(|(t, m)| (to, t, m)));
            done += fx.drain_completions().count();
        }
        assert_eq!(done, 1, "the write completes through the wrapper");
        let c = probe.read();
        assert!(c.msgs > 0 && c.on_message_ns > 0);
        let later = probe.read().since(c);
        assert_eq!(later, CoreCounts::default());
    }
}
