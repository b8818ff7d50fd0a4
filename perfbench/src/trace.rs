//! Traced rounds: the per-layer measurements.
//!
//! Beside the service, each batch is replayed through the layers' public
//! functions in the order `MatchService::apply` calls them — mutate the
//! graph, maintain the oracle, repair every query, build the deltas — and
//! each call is timed from outside. The replay's deltas must equal the
//! service's, and its spans must cover the service's apply time. `gpm-obs`
//! is on, for the counters the program already keeps.

use crate::check::{check_distances, check_naive, check_stream, crosses_bound, registered_bounds};
use crate::run::{same_outcome, WorkCounts};
use crate::workload::{Inputs, Workload};
use gpm::net::codec::{decode_message, encode_message};
use gpm::net::{Request, Response};
use gpm::{
    repair_match_state, DataGraph, DistanceOracle, EdgeUpdate, Executor, MatchDelta, MatchRelation,
    MatchService, MatchState, PatternGraph, QueryId, RepairOutcome,
};
use std::time::Instant;

/// Sums over the traced batches of one run.
#[derive(Debug, Default)]
pub struct Traced {
    pub batches: u64,
    pub apply_s: f64,
    pub mutate_s: f64,
    pub maintain_s: f64,
    pub repair_wall_s: f64,
    pub repair_sum_s: f64,
    pub delta_s: f64,
    pub aff1: u64,
    pub aff1_crossing: u64,
    pub verifications: u64,
    pub aff2: u64,
    pub rebuilds: u64,
    pub rebuild_ns: u64,
    pub label_queries: u64,
    pub busy_ns: u64,
    pub build_ms: Vec<f64>,
    pub match_ms: Vec<f64>,
    pub oracle_mib: Vec<f64>,
    pub rtt_s: f64,
    pub overhead_s: f64,
    pub codec_s: f64,
    pub frame_bytes: u64,
    pub sub_lag_ms: Vec<f64>,
    /// The workload's own batch latency (apply, or round trip on the wire)
    /// with tracing on, for the overhead against an untraced round.
    pub e2e_ms: Vec<f64>,
}

impl Traced {
    /// Share of the service's apply time that the replay's spans cover.
    pub fn coverage(&self) -> f64 {
        let children = self.mutate_s + self.maintain_s + self.repair_wall_s + self.delta_s;
        children / self.apply_s
    }
}

/// One query as the replay keeps it.
struct Replayed<'a> {
    id: QueryId,
    pattern: &'a PatternGraph,
    state: MatchState,
    emitted: MatchRelation,
    repair: Option<(RepairOutcome, f64)>,
}

fn initialise<'a>(
    id: QueryId,
    pattern: &'a PatternGraph,
    graph: &DataGraph,
    oracle: &(dyn DistanceOracle + Send + Sync),
    exec: &Executor,
    t: &mut Traced,
) -> Replayed<'a> {
    let start = Instant::now();
    let state = MatchState::initialise_with(pattern, graph, oracle, exec);
    t.match_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let emitted = state.relation();
    Replayed {
        id,
        pattern,
        state,
        emitted,
        repair: None,
    }
}

/// Counters `gpm-obs` already keeps, read around each `apply` call.
struct ObsCounters {
    rebuilds: std::sync::Arc<gpm::obs::Counter>,
    label_queries: std::sync::Arc<gpm::obs::Counter>,
    rebuild_ns: std::sync::Arc<gpm::obs::Histogram>,
    busy_ns: std::sync::Arc<gpm::obs::Counter>,
}

impl ObsCounters {
    fn new() -> Self {
        let oracle = gpm::obs::registry().scope("oracle");
        ObsCounters {
            rebuilds: oracle.counter("twohop.rebuilds"),
            label_queries: oracle.counter("twohop.label_queries"),
            rebuild_ns: oracle.histogram("twohop.rebuild_ns"),
            busy_ns: gpm::obs::registry().scope("exec").nondet_counter("busy_ns"),
        }
    }

    fn read(&self) -> [u64; 4] {
        [
            self.rebuilds.get(),
            self.label_queries.get(),
            self.rebuild_ns.snapshot().sum,
            self.busy_ns.get(),
        ]
    }
}

/// One traced round.
pub fn traced_round(w: &Workload, inp: &Inputs, t: &mut Traced) -> Result<WorkCounts, String> {
    let obs = ObsCounters::new();
    let exec = Executor::new(w.parallelism());
    let mut svc = MatchService::with_backend(inp.graph.clone(), w.backend, w.parallelism());
    let ids: Vec<QueryId> = inp
        .initial
        .iter()
        .map(|p| svc.register(p.clone()))
        .collect();

    let mut graph = inp.graph.clone();
    let start = Instant::now();
    let mut oracle = w.backend.build(&graph, &exec);
    t.build_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let mut replay: Vec<Replayed> = ids
        .iter()
        .zip(&inp.initial)
        .map(|(&id, p)| initialise(id, p, &graph, oracle.as_ref(), &exec, t))
        .collect();

    let mut wire = if w.wire {
        Some(crate::run::Wire::open(w, inp, inp.graph.clone())?)
    } else {
        None
    };
    if let Some(wire) = &wire {
        if wire.ids.iter().zip(&ids).any(|(a, b)| *a != b.value()) {
            return Err("wire and in-process query ids differ".into());
        }
    }
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut bounds = registered_bounds(replay.iter().map(|r| r.pattern));
    let mut counts = WorkCounts::default();
    let (verifications_before, aff2_before) = (t.verifications, t.aff2);
    let mut churn = inp.churn.iter();

    for (b, batch) in inp.batches.iter().enumerate() {
        let wire_out = match wire.as_mut() {
            Some(wire) => {
                let start = Instant::now();
                sent_at.push(start);
                let out = wire.admin.apply(batch).map_err(|e| format!("apply: {e}"))?;
                Some((out, start.elapsed().as_secs_f64()))
            }
            None => None,
        };

        let before = obs.read();
        let start = Instant::now();
        let out = svc.apply(batch);
        let apply_s = start.elapsed().as_secs_f64();
        let after = obs.read();
        t.batches += 1;
        t.apply_s += apply_s;
        t.rebuilds += after[0] - before[0];
        t.label_queries += after[1] - before[1];
        t.rebuild_ns += after[2] - before[2];
        t.busy_ns += after[3] - before[3];
        counts.note_outcome(&out);
        match &wire_out {
            Some((applied, rtt_s)) => {
                if !same_outcome(applied, &out) {
                    return Err(format!(
                        "batch {}: wire outcome differs from in-process",
                        b + 1
                    ));
                }
                t.rtt_s += rtt_s;
                t.overhead_s += rtt_s - apply_s;
                t.e2e_ms.push(rtt_s * 1e3);
            }
            None => t.e2e_ms.push(apply_s * 1e3),
        }

        let step = Step {
            epoch: out.epoch,
            bounds: &bounds,
            exec: &exec,
        };
        let deltas = replay_batch(batch, &mut graph, oracle.as_mut(), &mut replay, &step, t);
        if deltas != out.deltas {
            return Err(format!(
                "batch {}: replayed deltas differ from the service's",
                b + 1
            ));
        }
        time_codec(batch, &out, t)?;

        if (b + 1) % w.churn_every == 0 {
            let subscribed = wire.as_ref().map(|wire| wire.subscribed);
            let i = replay
                .iter()
                .position(|r| Some(r.id.value()) != subscribed)
                .expect("K > 1");
            let old = replay.remove(i).id;
            svc.deregister(old);
            let p = churn.next().expect("one pattern per churn event");
            let id = svc.register(p.clone());
            if let Some(wire) = wire.as_mut() {
                wire.admin
                    .deregister(old.value())
                    .map_err(|e| format!("deregister: {e}"))?;
                let wid = wire
                    .admin
                    .register(p)
                    .map_err(|e| format!("register: {e}"))?;
                if wid != id.value() {
                    return Err("wire and in-process query ids differ".into());
                }
            }
            replay.push(initialise(id, p, &graph, oracle.as_ref(), &exec, t));
            bounds = registered_bounds(replay.iter().map(|r| r.pattern));
        }
        let last = b + 1 == inp.batches.len();
        if (b + 1) % w.check_every == 0 || last {
            let mut results = Vec::with_capacity(replay.len());
            for r in &replay {
                let result = svc.result(r.id).expect("live query");
                if r.state.relation() != result {
                    return Err(format!(
                        "batch {}: replay state differs for {}",
                        b + 1,
                        r.id
                    ));
                }
                results.push((r.pattern, result));
            }
            check_naive(svc.graph(), &results).map_err(|e| format!("batch {}: {e}", b + 1))?;
            check_distances(svc.graph(), svc.oracle(), &inp.distance_sources)?;
            check_distances(&graph, oracle.as_ref(), &inp.distance_sources)?;
        }
    }
    t.oracle_mib
        .push(svc.oracle().memory_bytes() as f64 / (1024.0 * 1024.0));
    counts.verifications = svc.stats().verifications as u64;
    counts.aff2 = Some(t.aff2 - aff2_before);
    let verifications = t.verifications - verifications_before;
    counts.rebuilds = svc.oracle().rebuilds() as u64;
    if counts.verifications != verifications {
        return Err("replayed verifications differ from the service's".into());
    }

    if let Some(wire) = wire {
        let q = QueryId::from_raw(wire.subscribed);
        let result = svc.result(q).expect("subscribed query is live");
        let stream = wire.close()?;
        for (d, at) in stream.iter().skip(1) {
            let sent = sent_at[(d.epoch - 1) as usize];
            t.sub_lag_ms
                .push(at.duration_since(sent).as_secs_f64() * 1e3);
        }
        let deltas: Vec<MatchDelta> = stream.into_iter().map(|(d, _)| d).collect();
        check_stream(q, &deltas, &result)?;
    }
    Ok(counts)
}

/// What one replayed batch needs besides the mutable state.
struct Step<'a> {
    epoch: u64,
    bounds: &'a [gpm::EdgeBound],
    exec: &'a Executor,
}

/// Replays one batch through the layers, timing each step, and returns the
/// non-empty deltas in registration order. Mirrors `MatchService::apply`:
/// no-op updates are skipped, and an empty `AFF1` repairs nothing.
fn replay_batch(
    batch: &[EdgeUpdate],
    graph: &mut DataGraph,
    oracle: &mut (dyn DistanceOracle + Send + Sync),
    replay: &mut [Replayed],
    step: &Step,
    t: &mut Traced,
) -> Vec<MatchDelta> {
    let start = Instant::now();
    let applied: Vec<EdgeUpdate> = batch.iter().copied().filter(|u| u.apply(graph)).collect();
    t.mutate_s += start.elapsed().as_secs_f64();
    for r in replay.iter_mut() {
        r.repair = None;
    }
    if applied.is_empty() {
        return Vec::new();
    }

    let start = Instant::now();
    let aff1 = oracle.apply_batch(graph, &applied, step.exec);
    t.maintain_s += start.elapsed().as_secs_f64();
    t.aff1 += aff1.len() as u64;
    t.aff1_crossing += aff1
        .iter()
        .filter(|p| crosses_bound(p.old, p.new, step.bounds))
        .count() as u64;
    if aff1.is_empty() {
        return Vec::new();
    }

    // The same fan-out as the service: one task per query.
    let start = Instant::now();
    let (graph, oracle): (&DataGraph, &(dyn DistanceOracle + Send + Sync)) = (graph, oracle);
    step.exec.par_chunks_mut(replay, 1, |_, chunk| {
        for r in chunk.iter_mut() {
            let begin = Instant::now();
            let out = repair_match_state(r.pattern, graph, oracle, &mut r.state, &aff1)
                .expect("DAG patterns repair in place");
            r.repair = Some((out, begin.elapsed().as_secs_f64()));
        }
    });
    t.repair_wall_s += start.elapsed().as_secs_f64();
    for (out, secs) in replay.iter().filter_map(|r| r.repair.as_ref()) {
        t.repair_sum_s += secs;
        t.verifications += out.verifications as u64;
        t.aff2 += out.aff2.len() as u64;
    }

    let start = Instant::now();
    let deltas = replay
        .iter_mut()
        .filter_map(|r| {
            let visible = r.state.relation();
            let delta = MatchDelta::between(r.id, step.epoch, &r.emitted, &visible);
            r.emitted = visible;
            (!delta.is_empty()).then_some(delta)
        })
        .collect();
    t.delta_s += start.elapsed().as_secs_f64();
    deltas
}

/// Times the public codec on the batch's request and response frames.
fn time_codec(batch: &[EdgeUpdate], out: &gpm::BatchOutcome, t: &mut Traced) -> Result<(), String> {
    let request = Request::ApplyBatch {
        updates: batch.to_vec(),
    };
    let response = Response::Applied {
        epoch: out.epoch,
        applied: out.applied as u64,
        aff1: out.aff1 as u64,
        deltas: out.deltas.clone(),
    };
    let start = Instant::now();
    let request_frame = encode_message(&request).map_err(|e| e.to_string())?;
    let request_back: Request = decode_message(&request_frame).map_err(|e| e.to_string())?;
    let response_frame = encode_message(&response).map_err(|e| e.to_string())?;
    let response_back: Response = decode_message(&response_frame).map_err(|e| e.to_string())?;
    t.codec_s += start.elapsed().as_secs_f64();
    if request_back != request || response_back != response {
        return Err("codec round trip changed a frame".into());
    }
    t.frame_bytes += (request_frame.len() + response_frame.len()) as u64;
    Ok(())
}
