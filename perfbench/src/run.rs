//! Untraced rounds: the end-to-end measurements.
//!
//! A round sets the service up from the graph in memory, drives the round's
//! batches in a closed loop with catalog churn, and checks the outputs at
//! checkpoints and at the end. Every round of a run repeats the same
//! operations, so its work counts must repeat exactly.

use crate::check::{check_distances, check_naive, check_stream};
use crate::stats::nearest_rank;
use crate::workload::{Inputs, Workload};
use gpm::net::{AppliedBatch, NetClient, NetServer, NetSubscription, ServerHandle, ServerOptions};
use gpm::{
    BatchOutcome, MatchDelta, MatchRelation, MatchService, PatternGraph, QueryId, Subscription,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Exact work done by one round. `aff2` is only seen by the traced replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    pub batches: u64,
    pub applied: u64,
    pub aff1: u64,
    pub verifications: u64,
    pub aff2: Option<u64>,
    pub delta_pairs: u64,
    pub rebuilds: u64,
}

impl WorkCounts {
    pub fn json(&self) -> String {
        let aff2 = self.aff2.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"batches\": {}, \"applied\": {}, \"aff1_pairs\": {}, \"verifications\": {}, \
             \"aff2_pairs\": {aff2}, \"delta_pairs\": {}, \"oracle_rebuilds\": {}}}",
            self.batches,
            self.applied,
            self.aff1,
            self.verifications,
            self.delta_pairs,
            self.rebuilds
        )
    }

    pub fn note_outcome(&mut self, out: &BatchOutcome) {
        self.batches += 1;
        self.applied += out.applied as u64;
        self.aff1 += out.aff1 as u64;
        self.delta_pairs += out.deltas.iter().map(|d| d.len() as u64).sum::<u64>();
    }
}

/// Timings of the untraced rounds of one run.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub register_ms: Vec<f64>,
    pub applied: u64,
    /// Seconds spent inside apply calls (round trips on the wire).
    pub apply_s: f64,
    /// Batches applied plus churn registrations.
    pub operations: u64,
    pub rounds: Vec<WorkCounts>,
    /// Per complete round: the p90 of its batch latencies, in ms.
    pub round_p90_ms: Vec<f64>,
    /// Per complete round: its updates applied ÷ its time inside apply calls.
    pub round_updates_per_s: Vec<f64>,
}

/// Where a round's samples start in `Measured`.
#[derive(Clone, Copy)]
pub struct RoundMark {
    batches: usize,
    applied: u64,
    apply_s: f64,
}

impl Measured {
    pub fn mark(&self) -> RoundMark {
        RoundMark {
            batches: self.batch_ms.len(),
            applied: self.applied,
            apply_s: self.apply_s,
        }
    }

    /// Records the per-round figures of the round that began at `from`.
    pub fn end_round(&mut self, from: RoundMark, counts: WorkCounts) {
        let p90 = nearest_rank(&self.batch_ms[from.batches..], 0.9).unwrap_or(0.0);
        self.round_p90_ms.push(p90);
        self.round_updates_per_s
            .push((self.applied - from.applied) as f64 / (self.apply_s - from.apply_s));
        self.rounds.push(counts);
    }

    fn note_batch(&mut self, secs: f64, applied: usize) {
        self.batch_ms.push(secs * 1e3);
        self.apply_s += secs;
        self.applied += applied as u64;
        self.operations += 1;
    }

    fn note_register(&mut self, secs: f64) {
        self.register_ms.push(secs * 1e3);
        self.operations += 1;
    }
}

/// A live in-process query: its pattern, its subscription and the stream
/// drained from it so far.
struct LiveQuery<'a> {
    id: QueryId,
    pattern: &'a PatternGraph,
    sub: Subscription,
    stream: Vec<MatchDelta>,
}

impl LiveQuery<'_> {
    fn check_stream(&mut self, result: &MatchRelation) -> Result<(), String> {
        self.stream.extend(self.sub.drain());
        check_stream(self.id, &self.stream, result)
    }
}

/// From the graph in memory to a ready service: oracle built, the K initial
/// queries registered and subscribed.
fn inproc_setup<'a>(
    w: &Workload,
    inp: &'a Inputs,
    graph: gpm::DataGraph,
) -> (MatchService, VecDeque<LiveQuery<'a>>) {
    let mut svc = MatchService::with_backend(graph, w.backend, w.parallelism());
    let mut live = VecDeque::new();
    for p in &inp.initial {
        let id = svc.register(p.clone());
        let sub = svc.subscribe(id).expect("just registered");
        live.push_back(LiveQuery {
            id,
            pattern: p,
            sub,
            stream: Vec::new(),
        });
    }
    (svc, live)
}

/// One timed set-up and nothing else, for a steadier `setup_s` median.
pub fn setup_only(w: &Workload, inp: &Inputs, m: &mut Measured) -> Result<(), String> {
    if w.wire {
        let graph = inp.graph.clone();
        let start = Instant::now();
        let wire = Wire::open(w, inp, graph)?;
        m.setup_s.push(start.elapsed().as_secs_f64());
        wire.close().map(drop)
    } else {
        let graph = inp.graph.clone();
        let start = Instant::now();
        let ready = inproc_setup(w, inp, graph);
        m.setup_s.push(start.elapsed().as_secs_f64());
        drop(ready);
        Ok(())
    }
}

/// One untraced in-process round.
pub fn inproc_round(w: &Workload, inp: &Inputs, m: &mut Measured) -> Result<WorkCounts, String> {
    let graph = inp.graph.clone();
    let start = Instant::now();
    let (mut svc, mut live) = inproc_setup(w, inp, graph);
    m.setup_s.push(start.elapsed().as_secs_f64());

    let mut counts = WorkCounts::default();
    let mut churn = inp.churn.iter();
    for (b, batch) in inp.batches.iter().enumerate() {
        let t = Instant::now();
        let out = svc.apply(batch);
        m.note_batch(t.elapsed().as_secs_f64(), out.applied);
        counts.note_outcome(&out);

        if (b + 1) % w.churn_every == 0 {
            let mut old = live.pop_front().expect("K > 0");
            let result = svc.result(old.id).expect("live query");
            old.check_stream(&result)?;
            svc.deregister(old.id);
            let p = churn.next().expect("one pattern per churn event");
            let t = Instant::now();
            let id = svc.register(p.clone());
            m.note_register(t.elapsed().as_secs_f64());
            let sub = svc.subscribe(id).expect("just registered");
            live.push_back(LiveQuery {
                id,
                pattern: p,
                sub,
                stream: Vec::new(),
            });
        }
        let last = b + 1 == inp.batches.len();
        if (b + 1) % w.check_every == 0 || last {
            let mut results = Vec::with_capacity(live.len());
            for q in live.iter_mut() {
                let r = svc.result(q.id).expect("live query");
                if last {
                    q.check_stream(&r)?;
                }
                results.push((q.pattern, r));
            }
            check_naive(svc.graph(), &results).map_err(|e| format!("batch {}: {e}", b + 1))?;
            check_distances(svc.graph(), svc.oracle(), &inp.distance_sources)?;
        }
    }
    counts.verifications = svc.stats().verifications as u64;
    counts.rebuilds = svc.oracle().rebuilds() as u64;
    Ok(counts)
}

/// The loopback server, its admin connection and the subscriber thread.
pub struct Wire {
    pub admin: NetClient,
    handle: ServerHandle,
    subscriber: std::thread::JoinHandle<Result<Vec<(MatchDelta, Instant)>, String>>,
    pub ids: Vec<u64>,
    pub subscribed: u64,
}

impl Wire {
    /// Serves a fresh service on loopback, registers `patterns` over the
    /// admin connection and subscribes a second connection to
    /// `patterns[subscribed]`; a thread collects that stream with the
    /// instant each delta was decoded.
    pub fn open(w: &Workload, inp: &Inputs, graph: gpm::DataGraph) -> Result<Wire, String> {
        let svc = MatchService::with_backend(graph, w.backend, w.parallelism());
        let server = NetServer::bind("127.0.0.1:0", svc, ServerOptions::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let mut admin = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let ids = inp
            .initial
            .iter()
            .map(|p| admin.register(p))
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("register: {e}"))?;
        let subscribed = ids[inp.subscribed];
        let sub = NetClient::connect(addr)
            .and_then(|c| c.subscribe(subscribed))
            .map_err(|e| format!("subscribe: {e}"))?;
        let subscriber = std::thread::spawn(move || collect(sub));
        Ok(Wire {
            admin,
            handle,
            subscriber,
            ids,
            subscribed,
        })
    }

    /// Ends the subscription by deregistering its query, joins the
    /// subscriber thread and shuts the server down.
    pub fn close(mut self) -> Result<Vec<(MatchDelta, Instant)>, String> {
        self.admin
            .deregister(self.subscribed)
            .map_err(|e| format!("deregister: {e}"))?;
        let stream = self
            .subscriber
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())?;
        drop(self.admin);
        self.handle.shutdown();
        stream
    }
}

fn collect(mut sub: NetSubscription) -> Result<Vec<(MatchDelta, Instant)>, String> {
    let mut got = Vec::new();
    while let Some(d) = sub.next().map_err(|e| format!("subscriber: {e}"))? {
        got.push((d, Instant::now()));
    }
    Ok(got)
}

/// Whether a wire outcome equals the in-process outcome of the same batch.
pub fn same_outcome(wire: &AppliedBatch, local: &BatchOutcome) -> bool {
    wire.epoch == local.epoch
        && wire.applied == local.applied as u64
        && wire.aff1 == local.aff1 as u64
        && wire.deltas == local.deltas
}

/// One untraced wire round. An in-process twin of the service, fed the same
/// operations between timed calls, supplies the work counts and the oracle
/// for the distance check, and must agree with every wire outcome.
pub fn wire_round(w: &Workload, inp: &Inputs, m: &mut Measured) -> Result<WorkCounts, String> {
    let mut twin = MatchService::with_backend(inp.graph.clone(), w.backend, w.parallelism());
    let twin_ids: Vec<QueryId> = inp
        .initial
        .iter()
        .map(|p| twin.register(p.clone()))
        .collect();

    let graph = inp.graph.clone();
    let start = Instant::now();
    let mut wire = Wire::open(w, inp, graph)?;
    m.setup_s.push(start.elapsed().as_secs_f64());
    if wire.ids.iter().zip(&twin_ids).any(|(a, b)| *a != b.value()) {
        return Err("wire and in-process query ids differ".into());
    }

    // Live queries in registration order; the subscribed one never churns.
    let mut live: Vec<(u64, &PatternGraph)> =
        wire.ids.iter().copied().zip(inp.initial.iter()).collect();
    let mut counts = WorkCounts::default();
    let mut churn = inp.churn.iter();
    for (b, batch) in inp.batches.iter().enumerate() {
        let t = Instant::now();
        let applied = wire.admin.apply(batch).map_err(|e| format!("apply: {e}"))?;
        m.note_batch(t.elapsed().as_secs_f64(), applied.applied as usize);
        let local = twin.apply(batch);
        if !same_outcome(&applied, &local) {
            return Err(format!(
                "batch {}: wire outcome differs from in-process",
                b + 1
            ));
        }
        counts.note_outcome(&local);

        if (b + 1) % w.churn_every == 0 {
            let i = live
                .iter()
                .position(|&(q, _)| q != wire.subscribed)
                .expect("K > 1");
            let (old, _) = live.remove(i);
            wire.admin
                .deregister(old)
                .map_err(|e| format!("deregister: {e}"))?;
            twin.deregister(QueryId::from_raw(old));
            let p = churn.next().expect("one pattern per churn event");
            let t = Instant::now();
            let id = wire
                .admin
                .register(p)
                .map_err(|e| format!("register: {e}"))?;
            m.note_register(t.elapsed().as_secs_f64());
            if twin.register(p.clone()).value() != id {
                return Err("wire and in-process query ids differ".into());
            }
            live.push((id, p));
        }
        let last = b + 1 == inp.batches.len();
        if (b + 1) % w.check_every == 0 || last {
            let mut results = Vec::with_capacity(live.len());
            for &(q, p) in &live {
                let r = wire
                    .admin
                    .result(q)
                    .map_err(|e| format!("result: {e}"))?
                    .ok_or("live query has no result")?;
                results.push((p, r));
            }
            check_naive(twin.graph(), &results).map_err(|e| format!("batch {}: {e}", b + 1))?;
            check_distances(twin.graph(), twin.oracle(), &inp.distance_sources)?;
        }
    }
    let final_result = twin
        .result(QueryId::from_raw(wire.subscribed))
        .expect("subscribed query is live");
    let subscribed = wire.subscribed;
    let stream: Vec<MatchDelta> = wire.close()?.into_iter().map(|(d, _)| d).collect();
    check_stream(QueryId::from_raw(subscribed), &stream, &final_result)?;
    counts.verifications = twin.stats().verifications as u64;
    counts.rebuilds = twin.oracle().rebuilds() as u64;
    Ok(counts)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
