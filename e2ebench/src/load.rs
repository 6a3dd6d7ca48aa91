//! Open-loop traffic: a sleeping generator and a blocking collector for
//! reads, and one scheduled writer for churn.
//!
//! Every operation has a due time fixed before the phase starts; latency is
//! measured from that due time, so a stall also charges the operations
//! queued behind it.

use crate::ops::{ChurnEdge, Read};
use crate::trace::{Span, Trace};
use mgp_core::{Frontend, FrontendError, SearchEngine};
use mgp_graph::{Graph, GraphDelta};
use mgp_matching::{wcoj_count_changes, ExtensionPlan, MatchStats, PatternInfo};
use mgp_online::{ClassDelta, QueryServer, RankedList};
use mgp_persist::Journal;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sleeps until `due` (returns at once if it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the front-end serves: its two class ids and `k`.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    /// The front-end under test.
    pub frontend: &'a Frontend,
    /// Server class id of each of the workload's two classes.
    pub class_ids: [usize; 2],
    /// Results per query.
    pub k: usize,
}

/// One open-loop read phase's raw samples.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Due-to-answer latency of every answered read, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each read, ms.
    pub late_ms: Vec<f64>,
    /// Reads offered.
    pub attempted: u64,
    /// Reads shed by admission control.
    pub shed: u64,
    /// Reads that failed with any other typed error.
    pub errors: u64,
    /// Every `sample_every`-th answer, with the read it answered.
    pub samples: Vec<(Read, Arc<RankedList>)>,
}

impl ReadOutcome {
    /// Whether latency grew across the phase: the median of its last tenth
    /// exceeds twice the median of its first tenth plus 1 ms.
    pub fn backlog_grew(&self) -> bool {
        let n = self.latency_ms.len();
        if n < 20 {
            return false;
        }
        let tenth = n / 10;
        let head = crate::stats::median(&self.latency_ms[..tenth]).unwrap_or(0.0);
        let tail = crate::stats::median(&self.latency_ms[n - tenth..]).unwrap_or(0.0);
        tail > 2.0 * head + 1.0
    }
}

/// Offers `n` reads, `reads[(offset + i) % len]` due at `start + i / rate`,
/// and collects every answer.
pub fn drive_reads(
    target: Target<'_>,
    reads: &[Read],
    offset: usize,
    n: usize,
    rate: f64,
    start: Instant,
    sample_every: usize,
) -> ReadOutcome {
    let (tx, rx) = mpsc::channel::<(usize, Instant, crate::ops::Read, mgp_online::Ticket)>();
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut out = ReadOutcome {
                late_ms: Vec::with_capacity(n),
                ..Default::default()
            };
            for i in 0..n {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                sleep_until(due);
                out.late_ms
                    .push(ms(Instant::now().saturating_duration_since(due)));
                let read = reads[(offset + i) % reads.len()];
                out.attempted += 1;
                match target.frontend.submit(
                    target.class_ids[read.class as usize],
                    read.anchor,
                    target.k,
                ) {
                    Ok(ticket) => tx.send((i, due, read, ticket)).expect("collector is alive"),
                    Err(FrontendError::Overloaded { .. }) => out.shed += 1,
                    Err(_) => out.errors += 1,
                }
            }
            out
        });
        let mut latency_ms = Vec::with_capacity(n);
        let mut samples = Vec::new();
        let mut errors = 0;
        for (i, due, read, ticket) in rx {
            match ticket.wait() {
                Ok(list) => {
                    latency_ms.push(ms(Instant::now().saturating_duration_since(due)));
                    if i % sample_every.max(1) == 0 {
                        samples.push((read, list));
                    }
                }
                Err(_) => errors += 1,
            }
        }
        let mut out = generator.join().expect("generator thread panicked");
        out.latency_ms = latency_ms;
        out.samples = samples;
        out.errors += errors;
        out
    })
}

/// Layer probes the traced writer runs on each delta after the measured
/// ingest: the graph splice, the wcoj matcher over every matched pattern
/// with plans compiled once, and a journal append to a side journal.
pub struct LayerProbe {
    /// Every matched pattern with its compiled plan.
    pub plans: Vec<(PatternInfo, ExtensionPlan)>,
    /// A journal no restart reads.
    pub journal: Journal,
}

impl LayerProbe {
    /// Compiles a plan for every pattern the engine has matched.
    pub fn new(engine: &SearchEngine, journal: Journal) -> LayerProbe {
        let plans = engine
            .patterns()
            .iter()
            .enumerate()
            .filter(|(i, _)| engine.counts(*i).is_some())
            .map(|(_, p)| (p.clone(), ExtensionPlan::compile(p, engine.graph())))
            .collect();
        LayerProbe { plans, journal }
    }
}

/// One write phase's raw samples.
#[derive(Debug, Default)]
pub struct WriteOutcome {
    /// Due-to-visible latency of every committed delta, ms.
    pub ingest_ms: Vec<f64>,
    /// Deltas due.
    pub attempted: u64,
    /// Deltas rejected.
    pub failed: u64,
}

/// The delta that inserts (`insert`) or removes one churn edge.
pub fn churn_delta(graph: &Graph, edge: ChurnEdge, insert: bool) -> GraphDelta {
    let mut delta = GraphDelta::for_graph(graph);
    let r = if insert {
        delta.add_edge(edge.anchor, edge.attr)
    } else {
        delta.remove_edge(edge.anchor, edge.attr)
    };
    r.expect("churn edge endpoints exist in the graph");
    delta
}

/// Applies `n_deltas` single-edge deltas (an even count: each churn edge is
/// inserted, then removed), delta `j` due at `start + j · period`, through
/// [`SearchEngine::ingest_serving`], at a lower scheduling priority than the
/// serving threads. With tracing on, the ingest is spelled
/// out as its two public calls and each delta also runs the layer probe.
#[allow(clippy::too_many_arguments)]
pub fn drive_writes(
    engine: &mut SearchEngine,
    server: &QueryServer,
    churn: &[ChurnEdge],
    offset: usize,
    n_deltas: usize,
    period: Duration,
    start: Instant,
    probe: Option<&mut LayerProbe>,
    trace: &mut Trace,
) -> WriteOutcome {
    debug_assert!(n_deltas.is_multiple_of(2), "churn must net to zero");
    crate::sys::deprioritize_current_thread();
    let mut probe = probe;
    let mut out = WriteOutcome {
        ingest_ms: Vec::with_capacity(n_deltas),
        ..Default::default()
    };
    for j in 0..n_deltas {
        let edge = churn[(offset + j / 2) % churn.len()];
        let delta = churn_delta(engine.graph(), edge, j % 2 == 0);
        let pre = probe.is_some().then(|| engine.graph().clone());
        let due = start + period.mul_f64(j as f64);
        sleep_until(due);
        out.attempted += 1;
        let root = trace.open("write");
        let ok = if trace.is_on() {
            traced_ingest(engine, server, &delta, root.as_ref(), trace)
        } else {
            engine.ingest_serving(&delta, server).is_ok()
        };
        let visible = Instant::now();
        if ok {
            out.ingest_ms
                .push(ms(visible.saturating_duration_since(due)));
            trace.record("write.visible", root.as_ref(), due, visible);
            if let (Some(probe), Some(pre)) = (probe.as_deref_mut(), pre) {
                run_probe(probe, &pre, &delta, root.as_ref(), trace);
            }
        } else {
            out.failed += 1;
        }
        trace.close(root);
    }
    out
}

/// `ingest_serving` as its two public calls, each in a span under `root`,
/// with the per-delta counts of the engine and server layers.
fn traced_ingest(
    engine: &mut SearchEngine,
    server: &QueryServer,
    delta: &GraphDelta,
    root: Option<&Span>,
    trace: &mut Trace,
) -> bool {
    let indexing_before = engine.timings().indexing;
    let (report, ingest_id) = trace.span("engine.ingest", root, || engine.ingest(delta));
    let Ok(report) = report else {
        return false;
    };
    let fanout = engine.timings().indexing.saturating_sub(indexing_before);
    trace.count(ingest_id, "index.fanout_ms", ms(fanout));
    let updates: Vec<ClassDelta<'_>> = report
        .per_class
        .iter()
        .filter_map(|(name, touch)| {
            Some(ClassDelta {
                class_id: server.class_id(name)?,
                index: &engine.model(name)?.index,
                touch,
            })
        })
        .collect();
    let (fused, fused_id) = trace.span("online.apply_delta_fused", root, || {
        server.apply_delta_fused(&updates)
    });
    let total = fused.total();
    for (name, value) in [
        ("online.fused_shard_visits", fused.fused_shard_visits),
        ("online.patched_entries", total.patched_entries),
        ("online.rebuilt_postings", total.rebuilt_postings),
        ("online.invalidated_anchors", total.invalidated_anchors),
        (
            "online.epoch_retained_bytes",
            server.epoch_stats().approx_retained_bytes,
        ),
    ] {
        trace.count(fused_id, name, value as f64);
    }
    true
}

/// The per-delta layer probe, under the delta's `root` span: splice, wcoj
/// over every matched pattern, journal append — each timed alone on the
/// pre-delta graph.
fn run_probe(
    probe: &mut LayerProbe,
    pre: &Graph,
    delta: &GraphDelta,
    root: Option<&Span>,
    trace: &mut Trace,
) {
    let (ext, _) = trace.span("graph.splice", root, || pre.apply_delta(delta));
    let ext = ext.expect("the engine already applied this delta to the same graph");
    let (stats, match_id) = trace.span("matching.delta", root, || {
        let mut stats = MatchStats::default();
        for (pattern, plan) in &probe.plans {
            let (_, s) = wcoj_count_changes(
                pre,
                &ext.graph,
                pattern,
                plan,
                &ext.removed_edges,
                &ext.new_edges,
                &ext.new_nodes,
            );
            stats += s;
        }
        stats
    });
    for (name, value) in [
        ("matching.proposals", stats.proposals),
        ("matching.intersections", stats.intersections),
        ("matching.extensions", stats.extensions),
        ("matching.instances", stats.instances),
        ("matching.dedup_suppressed", stats.dedup_suppressed),
    ] {
        trace.count(match_id, name, value as f64);
    }
    let (appended, _) = trace.span("persist.journal_append", root, || {
        probe.journal.append(delta)
    });
    appended.expect("side journal append");
}
