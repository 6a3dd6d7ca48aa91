//! One run of a workload: set up, drive the measured phase, check every
//! answer class, restart from the snapshot, and report. The traced run also
//! searches for the highest sustained read rate.

use crate::load::{drive_reads, drive_writes, LayerProbe, ReadOutcome, Target};
use crate::ops::{OpStream, Read};
use crate::stats::{mean, median, Quantiles};
use crate::sys;
use crate::trace::Trace;
use crate::workload::{Scale, Spec, Workload, K, MIN_SUPPORT};
use mgp_core::{
    journal_path_for, Frontend, FrontendConfig, PipelineConfig, SearchEngine, ServeConfig,
    TrainingStrategy,
};
use mgp_datagen::Dataset;
use mgp_graph::NodeId;
use mgp_learning::{sample_examples, TrainConfig, TrainingExample};
use mgp_online::{QueryServer, TableStats};
use mgp_persist::Journal;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The gated end-to-end metrics, with units, in reporting order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("snapshot_mb", "MB"),
];

/// End-to-end figures too unsteady to gate on a shared 2-vCPU VM (see
/// README.md): in every run record, and reported with the per-layer
/// metrics of a traced run.
pub const UNGATED: [(&str, &str); 5] = [
    ("e2e.query_p99_ms", "ms"),
    ("e2e.ingest_p50_ms", "ms"),
    ("e2e.ingest_p90_ms", "ms"),
    ("e2e.restart_s", "s"),
    ("e2e.capacity_qps", "1/s"),
];

/// The per-layer metrics of a traced run, with units, in reporting order.
/// The traced run also reports every [`UNGATED`] figure and
/// `overhead.<metric>` for every end-to-end metric: its traced value minus
/// its untraced value.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("mining.mine_s", "s"),
    ("matching.full_match_cpu_s", "s"),
    ("matching.delta_ms", "ms"),
    ("matching.proposals", "count"),
    ("matching.intersections", "count"),
    ("matching.extensions", "count"),
    ("matching.instances", "count"),
    ("matching.dedup_suppressed", "count"),
    ("matching.useful_ratio", "ratio"),
    ("graph.splice_ms", "ms"),
    ("graph.splice_share", "ratio"),
    ("index.build_s", "s"),
    ("index.fanout_ms", "ms"),
    ("learning.train_s", "s"),
    ("engine.ingest_ms", "ms"),
    ("online.apply_delta_fused_ms", "ms"),
    ("online.fused_shard_visits", "count"),
    ("online.patched_entries", "count"),
    ("online.rebuilt_postings", "count"),
    ("online.invalidated_anchors", "count"),
    ("online.epoch_retained_bytes", "bytes"),
    ("online.rank_hit_us_p50", "us"),
    ("online.rank_hit_us_p99", "us"),
    ("online.rank_miss_us_p50", "us"),
    ("online.rank_miss_us_p99", "us"),
    ("online.cache_hit_ratio", "ratio"),
    ("online.serve_build_s", "s"),
    ("frontend.coalesce_ratio", "ratio"),
    ("frontend.window_fill", "ratio"),
    ("frontend.windows", "count"),
    ("frontend.shed", "count"),
    ("persist.save_s", "s"),
    ("persist.open_s", "s"),
    ("persist.replayed", "count"),
    ("persist.journal_append_ms", "ms"),
    ("persist.journal_bytes_per_delta", "bytes"),
    ("harness.gen_late_p99_ms", "ms"),
    ("harness.trace_spans", "count"),
];

/// The latency limit `e2e.capacity_qps` holds the read p99 to.
pub const CAPACITY_P99_LIMIT_MS: f64 = 5.0;
/// Geometric bisection steps of the capacity search after bracketing; the
/// final bracket is 2^(1/32) ≈ 1.022 wide.
const CAPACITY_BISECTIONS: usize = 5;
/// The capacity search never probes beyond this multiple of the nominal
/// rate, nor below its inverse.
const CAPACITY_RANGE: f64 = 64.0;
/// Answers sampled per read phase for the front-end check.
const SAMPLED_ANSWERS: usize = 200;
/// Anchors whose answers must survive the restart bit for bit.
const RESTART_ANCHORS: usize = 64;
/// Reads in the closed-loop `try_rank` pass of a traced run.
const CLOSED_LOOP_READS: usize = 20_000;
/// Training examples per class (fixed seeds: part of the corpus).
const EXAMPLES_PER_CLASS: usize = 200;

/// How one run is invoked.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Graph size.
    pub scale: Scale,
    /// Traffic seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where snapshots, journals and the run record go.
    pub out_dir: PathBuf,
}

/// A reported value with its unit and the samples it was read from.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// Operations attempted and failed, per phase.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    phases: Vec<(&'static str, u64, u64)>,
}

impl Ledger {
    /// Adds `attempted` operations of which `failed` failed to a phase.
    pub fn add(&mut self, phase: &'static str, attempted: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.0 == phase) {
            Some(p) => {
                p.1 += attempted;
                p.2 += failed;
            }
            None => self.phases.push((phase, attempted, failed)),
        }
    }

    /// Records one check of `ok`.
    pub fn check(&mut self, phase: &'static str, ok: bool) {
        self.add(phase, 1, u64::from(!ok));
    }

    /// Total attempted.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.1).sum()
    }

    /// Total failed.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.2).sum()
    }

    /// Per-phase counts, in first-seen order.
    pub fn phases(&self) -> &[(&'static str, u64, u64)] {
        &self.phases
    }

    fn absorb(&mut self, other: &Ledger) {
        for &(phase, a, f) in &other.phases {
            self.add(phase, a, f);
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Every correctness check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations failed over the whole run.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The run record: machine, corpus, per-phase counts, sample counts.
    pub record: String,
}

impl Report {
    /// The one-line result object.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The generated corpus, examples and traffic of a run.
struct Inputs {
    spec: Spec,
    data: Dataset,
    examples: [Vec<TrainingExample>; 2],
    ops: OpStream,
}

/// Reads of the measured phase at the workload's rate.
fn measured_reads(spec: &Spec, seconds: f64) -> usize {
    ((spec.read_rate * seconds).ceil() as usize).max(1)
}

/// Deltas of a write phase: an even count, at least two.
fn deltas_in(spec: &Spec, seconds: f64) -> usize {
    let n = (seconds / spec.write_period.as_secs_f64()) as usize;
    (n & !1).max(2)
}

/// Length of the measured write phase: beside the reads, or a write-only
/// phase of half their length after them.
fn write_seconds(spec: &Spec, seconds: f64) -> f64 {
    if spec.churn_beside_reads {
        seconds
    } else {
        seconds / 2.0
    }
}

/// The op stream a run replays (exposed for the determinism test).
pub fn op_stream(workload: Workload, scale: Scale, seed: u64, seconds: f64) -> OpStream {
    let spec = workload.spec(scale);
    let data = spec.corpus.generate();
    stream_for(&spec, &data, seed, seconds)
}

fn stream_for(spec: &Spec, data: &Dataset, seed: u64, seconds: f64) -> OpStream {
    OpStream::generate(
        &data.graph,
        data.anchor_type,
        spec.mix,
        seed,
        measured_reads(spec, seconds),
        deltas_in(spec, write_seconds(spec, seconds)) / 2,
    )
}

fn examples(data: &Dataset, class: mgp_datagen::ClassId, seed: u64) -> Vec<TrainingExample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let queries = data.labels.queries_of_class(class);
    let anchors: Vec<NodeId> = data.graph.nodes_of_type(data.anchor_type).to_vec();
    sample_examples(
        &queries,
        |q| data.labels.positives_of(q, class),
        |q, v| data.labels.has(q, v, class),
        &anchors,
        EXAMPLES_PER_CLASS,
        &mut rng,
    )
}

/// Runs a workload once and reports: with `trace` off, every end-to-end
/// metric; with it on, an untraced pass then a traced pass, reporting every
/// per-layer metric and the tracing overhead on each end-to-end metric.
pub fn run(cfg: &RunConfig) -> std::io::Result<Report> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let spec = cfg.workload.spec(cfg.scale);
    let data = spec.corpus.generate();
    let [(_, c0), (_, c1)] = spec.corpus.classes();
    let inputs = Inputs {
        examples: [examples(&data, c0, 9), examples(&data, c1, 11)],
        ops: stream_for(&spec, &data, cfg.seed, cfg.seconds),
        spec,
        data,
    };
    let work = cfg.out_dir.join(format!(
        "work-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let passes: Vec<PassOut> = if cfg.trace {
        vec![
            pass(cfg, &inputs, &work, false)?,
            pass(cfg, &inputs, &work, true)?,
        ]
    } else {
        vec![pass(cfg, &inputs, &work, false)?]
    };
    let _ = std::fs::remove_dir_all(&work);

    let mut ledger = Ledger::default();
    for p in &passes {
        ledger.absorb(&p.ledger);
    }
    let last = passes.last().expect("at least one pass");
    let metrics = if cfg.trace {
        let mut m = last.layers.clone();
        m.extend(last.ungated.iter().cloned());
        for (untraced, traced) in passes[0].e2e.iter().zip(&last.e2e) {
            m.push(Metric {
                name: format!("overhead.{}", untraced.name),
                unit: untraced.unit,
                value: traced.value - untraced.value,
                samples: traced.samples,
            });
        }
        m
    } else {
        last.e2e.clone()
    };
    let base = format!(
        "{}-seed{}{}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "-trace" } else { "" }
    );
    if cfg.trace {
        last.trace
            .write_jsonl(&cfg.out_dir.join(format!("{base}.spans.jsonl")))?;
    }
    let failed = ledger.failed();
    let report = Report {
        correct: failed == 0,
        attempted: ledger.attempted(),
        failed,
        record: record(cfg, &inputs, &ledger, &passes),
        metrics,
    };
    std::fs::write(cfg.out_dir.join(format!("{base}.json")), &report.record)?;
    Ok(report)
}

/// The run record: everything needed to read the numbers later.
fn record(cfg: &RunConfig, inputs: &Inputs, ledger: &Ledger, passes: &[PassOut]) -> String {
    let g = &inputs.data.graph;
    let mut s = String::from("{\"record\": {");
    let _ = write!(
        s,
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"mem_total_mb\": {}, \"rev\": \"{}\", \"nodes\": {}, \"edges\": {}, \"metagraphs\": {}, \
         \"read_rate_qps\": {}, \"write_period_ms\": {}, \"phases\": {{",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        sys::nproc(),
        json_num(sys::mem_total_mb()),
        sys::git_rev(Path::new(".")),
        g.n_nodes(),
        g.n_edges(),
        passes[0].metagraphs,
        inputs.spec.read_rate,
        inputs.spec.write_period.as_millis(),
    );
    for (i, (phase, a, f)) in ledger.phases().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{phase}\": {{\"attempted\": {a}, \"failed\": {f}}}"
        );
    }
    s.push_str("}, \"passes\": [");
    for (i, p) in passes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{{\"traced\": {}, \"capacity_probes\": [", p.traced);
        for (j, (rate, p99, ok)) in p.capacity_probes.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"qps\": {}, \"p99_ms\": {}, \"pass\": {ok}}}",
                json_num(*rate),
                json_num(*p99)
            );
        }
        s.push_str("], \"metrics\": {");
        for (j, m) in p.e2e.iter().chain(&p.ungated).chain(&p.layers).enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                json_num(m.value),
                m.unit,
                m.samples
            );
        }
        s.push_str("}}");
    }
    s.push_str("]}}");
    s
}

/// Everything one pass over the workload measured.
struct PassOut {
    traced: bool,
    metagraphs: usize,
    e2e: Vec<Metric>,
    ungated: Vec<Metric>,
    layers: Vec<Metric>,
    ledger: Ledger,
    trace: Trace,
    capacity_probes: Vec<(f64, f64, bool)>,
}

/// Bit-identical ranked lists.
fn same(a: &[(NodeId, f64)], b: &[(NodeId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn pipeline_config(spec: &Spec, data: &Dataset) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(data.anchor_type, MIN_SUPPORT);
    cfg.miner.max_nodes = spec.max_nodes;
    cfg.train = TrainConfig::fast(1);
    cfg.strategy = TrainingStrategy::Full;
    cfg
}

/// One front-end batcher and one server worker: with the generator,
/// collector and writer, no more threads are runnable than a 2-CPU box has
/// most of the time.
fn serving_configs() -> (ServeConfig, FrontendConfig) {
    (
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        FrontendConfig {
            workers: 1,
            ..FrontendConfig::default()
        },
    )
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn single(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples: 1,
    }
}

/// The median of per-setup values, with their count.
fn median_metric(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: median(values).unwrap_or(0.0),
        samples: values.len(),
    }
}

/// The nearest-rank quantile `q` of raw samples, with their count.
fn quantile_metric(name: &str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Metric {
        name: name.to_string(),
        unit,
        value: crate::stats::quantile_sorted(&v, q).unwrap_or(0.0),
        samples: v.len(),
    }
}

/// Every served class's table sizes.
fn tables(server: &QueryServer, class_ids: [usize; 2]) -> [TableStats; 2] {
    class_ids.map(|c| server.table_stats(c))
}

/// Compares sampled front-end answers with `try_rank` on the quiesced
/// server and with `SearchEngine::search`.
fn check_answers(
    ledger: &mut Ledger,
    engine: &SearchEngine,
    server: &QueryServer,
    names: [&str; 2],
    class_ids: [usize; 2],
    samples: &[(Read, std::sync::Arc<mgp_online::RankedList>)],
) {
    for (read, answer) in samples {
        let c = read.class as usize;
        let direct = server.try_rank(class_ids[c], read.anchor, K);
        let ok = direct.is_ok_and(|d| same(answer, &d))
            && same(answer, &engine.search(names[c], read.anchor, K));
        ledger.check("check.answers", ok);
    }
}

/// Offers reads at `rate` for `seconds` (with the write schedule beside
/// them when the workload churns) and says whether the rate is sustained:
/// no sheds, no errors, p99 within the limit, no growing backlog.
#[allow(clippy::too_many_arguments)]
fn capacity_probe(
    spec: &Spec,
    target: Target<'_>,
    engine: &mut SearchEngine,
    ops: &OpStream,
    rate: f64,
    seconds: f64,
    read_cursor: &mut usize,
    ledger: &mut Ledger,
) -> (f64, bool) {
    let n = ((rate * seconds).ceil() as usize).max(1);
    let n_deltas = deltas_in(spec, seconds);
    let start = Instant::now() + Duration::from_millis(2);
    let server = target.frontend.server();
    let (reads, writes) = std::thread::scope(|s| {
        let writer = spec.churn_beside_reads.then(|| {
            s.spawn(move || {
                let mut off = Trace::new(false, start, 1);
                drive_writes(
                    engine,
                    server,
                    &ops.churn,
                    0,
                    n_deltas,
                    spec.write_period,
                    start,
                    None,
                    &mut off,
                )
            })
        });
        let reads = drive_reads(target, &ops.reads, *read_cursor, n, rate, start, usize::MAX);
        (
            reads,
            writer.map(|w| w.join().expect("writer thread panicked")),
        )
    });
    *read_cursor += n;
    if let Some(w) = &writes {
        ledger.add("capacity.writes", w.attempted, w.failed);
    }
    // Sheds above capacity are the search's signal, not failures.
    ledger.add("capacity.reads", reads.attempted - reads.shed, reads.errors);
    let p99 = Quantiles::of(&reads.latency_ms).p99;
    let ok = reads.shed == 0
        && reads.errors == 0
        && p99 <= CAPACITY_P99_LIMIT_MS
        && !reads.backlog_grew();
    (p99, ok)
}

/// The highest offered rate that [`capacity_probe`] sustains: bracket by
/// doubling or halving from the nominal rate, then bisect geometrically.
#[allow(clippy::too_many_arguments)]
fn capacity_search(
    spec: &Spec,
    target: Target<'_>,
    engine: &mut SearchEngine,
    ops: &OpStream,
    seconds: f64,
    read_cursor: &mut usize,
    ledger: &mut Ledger,
    probes: &mut Vec<(f64, f64, bool)>,
) -> f64 {
    // A failed probe is repeated once: a rate fails only if both probes
    // fail, so one scheduling hiccup cannot end the search early.
    let mut probe = |rate: f64, engine: &mut SearchEngine| {
        (0..2).any(|_| {
            let (p99, ok) = capacity_probe(
                spec,
                target,
                engine,
                ops,
                rate,
                seconds,
                read_cursor,
                ledger,
            );
            probes.push((rate, p99, ok));
            ok
        })
    };
    let nominal = spec.read_rate;
    let (mut lo, mut hi);
    if probe(nominal, engine) {
        lo = nominal;
        hi = 2.0 * nominal;
        while hi <= nominal * CAPACITY_RANGE && probe(hi, engine) {
            lo = hi;
            hi *= 2.0;
        }
    } else {
        hi = nominal;
        lo = nominal / 2.0;
        while lo >= nominal / CAPACITY_RANGE && !probe(lo, engine) {
            hi = lo;
            lo /= 2.0;
        }
    }
    for _ in 0..CAPACITY_BISECTIONS {
        let mid = (lo * hi).sqrt();
        if probe(mid, engine) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One full pass over the workload.
fn pass(cfg: &RunConfig, inputs: &Inputs, work: &Path, traced: bool) -> std::io::Result<PassOut> {
    let spec = &inputs.spec;
    let data = &inputs.data;
    let ops = &inputs.ops;
    let names = spec.corpus.classes().map(|(n, _)| n);
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work)?;
    let snap = work.join("engine.snap");
    sys::reset_peak_rss();
    let origin = Instant::now();
    let mut trace = Trace::new(traced, origin, 0);
    let mut ledger = Ledger::default();
    let (serve_cfg, fe_cfg) = serving_configs();

    // Set-up: graph in memory → serving front-end, several times.
    let mut setup_s = Vec::new();
    let mut serve_build_s = Vec::new();
    let mut timings = Vec::new();
    let mut live: Option<(Frontend, SearchEngine)> = None;
    for _ in 0..spec.setups.max(1) {
        drop(live.take());
        let graph = data.graph.clone();
        let root = trace.open("setup");
        let t0 = Instant::now();
        let (mut engine, _) = trace.span("engine.build", root.as_ref(), || {
            SearchEngine::build(graph, pipeline_config(spec, data))
        });
        for (name, ex) in names.iter().zip(&inputs.examples) {
            trace.span("learning.train_class", root.as_ref(), || {
                engine.train_class(name, ex);
            });
        }
        let t_serve = Instant::now();
        let (frontend, _) = trace.span("online.serve_frontend", root.as_ref(), || {
            engine.serve_frontend_with(serve_cfg.clone(), fe_cfg.clone())
        });
        serve_build_s.push(secs(t_serve.elapsed()));
        setup_s.push(secs(t0.elapsed()));
        trace.close(root);
        timings.push(engine.timings().clone());
        ledger.add("setup", 1, 0);
        live = Some((frontend, engine));
    }
    let (frontend, mut engine) = live.expect("at least one set-up");
    let metagraphs = engine.metagraphs().len();
    let server = std::sync::Arc::clone(frontend.server());
    let class_ids = names.map(|n| server.class_id(n).expect("trained class is served"));
    let target = Target {
        frontend: &frontend,
        class_ids,
        k: K,
    };
    let base_tables = tables(&server, class_ids);

    // Every ingest from here on is journaled with fsync.
    engine
        .attach_journal(journal_path_for(&snap))
        .map_err(std::io::Error::other)?;

    // A read-only window at the nominal rate warms the cache.
    let probe_s = cfg.seconds / 10.0;
    let n_window = measured_reads(spec, cfg.seconds / 2.0);
    let window = drive_reads(
        target,
        &ops.reads,
        0,
        n_window,
        spec.read_rate,
        Instant::now() + Duration::from_millis(2),
        usize::MAX,
    );
    ledger.add(
        "reads.read_only",
        window.attempted,
        window.shed + window.errors,
    );
    let mut read_cursor = n_window;
    // The capacity search (write schedule beside it) runs in the traced
    // pass only: on a shared 2-vCPU host its result spread 0.6–0.8 of its
    // median across seeds, too wide to gate on.
    let mut capacity_probes = Vec::new();
    let mut capacity = 0.0;
    if traced {
        capacity = capacity_search(
            spec,
            target,
            &mut engine,
            ops,
            probe_s,
            &mut read_cursor,
            &mut ledger,
            &mut capacity_probes,
        );
        ledger.check(
            "check.tables_after_capacity",
            tables(&server, class_ids) == base_tables,
        );
    }

    // Snapshot: the restart replays only the journal written after it.
    let (saved, _) = trace.span("persist.save", None, || {
        let t = Instant::now();
        engine
            .save_snapshot_with(&snap, &server)
            .map(|()| t.elapsed())
    });
    let save_s = secs(saved.map_err(std::io::Error::other)?);

    // Measured phase.
    let n_reads = measured_reads(spec, cfg.seconds);
    let sample_every = (n_reads / SAMPLED_ANSWERS).max(1);
    let fe_before = frontend.stats();
    let server_before = server.stats();
    let mut probe = if traced {
        let journal = Journal::create(work.join("probe.journal")).map_err(std::io::Error::other)?;
        Some(LayerProbe::new(&engine, journal))
    } else {
        None
    };
    let mut writer_trace = Trace::new(traced, origin, 1);
    let start = Instant::now() + Duration::from_millis(2);
    let (reads, churn_writes): (ReadOutcome, Option<_>) = if spec.churn_beside_reads {
        let n_deltas = deltas_in(spec, cfg.seconds);
        std::thread::scope(|s| {
            let (engine, probe, wt) = (&mut engine, probe.as_mut(), &mut writer_trace);
            let server = &server;
            let writer = s.spawn(move || {
                drive_writes(
                    engine,
                    server,
                    &ops.churn,
                    0,
                    n_deltas,
                    spec.write_period,
                    start,
                    probe,
                    wt,
                )
            });
            let reads = drive_reads(
                target,
                &ops.reads,
                0,
                n_reads,
                spec.read_rate,
                start,
                sample_every,
            );
            (reads, Some(writer.join().expect("writer thread panicked")))
        })
    } else {
        let reads = drive_reads(
            target,
            &ops.reads,
            0,
            n_reads,
            spec.read_rate,
            start,
            sample_every,
        );
        (reads, None)
    };
    let fe_after = frontend.stats();
    let server_after = server.stats();
    ledger.add("reads", reads.attempted, reads.shed + reads.errors);
    if !spec.churn_beside_reads {
        // Reads saw a fixed graph, so every sampled answer must still hold.
        check_answers(
            &mut ledger,
            &engine,
            &server,
            names,
            class_ids,
            &reads.samples,
        );
    }
    // Ingest of a workload without churn beside its reads is measured in a
    // write-only phase after them.
    let writes = match churn_writes {
        Some(w) => w,
        None => {
            let n_deltas = deltas_in(spec, write_seconds(spec, cfg.seconds));
            drive_writes(
                &mut engine,
                &server,
                &ops.churn,
                0,
                n_deltas,
                spec.write_period,
                Instant::now() + Duration::from_millis(2),
                probe.as_mut(),
                &mut writer_trace,
            )
        }
    };
    ledger.add("writes", writes.attempted, writes.failed);
    trace.merge(writer_trace);

    // Quiesced checks: churn netted to zero, and fresh front-end answers
    // agree with the server and the engine.
    ledger.check(
        "check.tables_after_churn",
        tables(&server, class_ids) == base_tables,
    );
    let fresh = drive_reads(
        target,
        &ops.reads,
        n_reads,
        SAMPLED_ANSWERS,
        spec.read_rate,
        Instant::now(),
        1,
    );
    ledger.add(
        "check.fresh_reads",
        fresh.attempted,
        fresh.shed + fresh.errors,
    );
    check_answers(
        &mut ledger,
        &engine,
        &server,
        names,
        class_ids,
        &fresh.samples,
    );

    // Closed-loop `try_rank` pass over the same stream (traced only).
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    if traced {
        let n = CLOSED_LOOP_READS.min(ops.reads.len());
        for read in &ops.reads[..n] {
            let hits = server.stats().cache_hits;
            let (answer, _) = trace.span("online.try_rank", None, || {
                let t = Instant::now();
                let r = server.try_rank(class_ids[read.class as usize], read.anchor, K);
                (r, t.elapsed())
            });
            ledger.add("closed_loop", 1, u64::from(answer.0.is_err()));
            let us = answer.1.as_secs_f64() * 1e6;
            if server.stats().cache_hits > hits {
                hit_us.push(us);
            } else {
                miss_us.push(us);
            }
        }
    }

    // The live answers a restart must reproduce.
    let anchors = data.graph.nodes_of_type(data.anchor_type);
    let step = (anchors.len() / RESTART_ANCHORS).max(1);
    let sample: Vec<NodeId> = anchors.iter().step_by(step).copied().collect();
    let live_answers: Vec<_> = names
        .iter()
        .zip(class_ids)
        .flat_map(|(&name, cid)| {
            let (server, engine) = (&server, &engine);
            sample.iter().map(move |&q| {
                let served = server.try_rank(cid, q, K).map(|a| (*a).clone());
                (name, q, served, engine.search(name, q, K))
            })
        })
        .collect();
    let probe_journal_bytes = probe
        .as_ref()
        .map(|_| std::fs::metadata(work.join("probe.journal")).map_or(0, |m| m.len()));
    let probe_deltas = probe.as_ref().map_or(0, |p| p.journal.last_seq());
    drop(probe);
    drop(frontend);
    drop(server);
    drop(engine);

    // Restart: open the snapshot and replay the journal tail.
    let snapshot_bytes =
        std::fs::metadata(&snap)?.len() + std::fs::metadata(journal_path_for(&snap))?.len();
    let (load, _) = trace.span("persist.open", None, || {
        let t = Instant::now();
        SearchEngine::open_snapshot(&snap).map(|l| (l, t.elapsed()))
    });
    let (load, open_took) = load.map_err(std::io::Error::other)?;
    let open_s = secs(open_took);
    let replayed = load.replayed;
    for (name, q, served, searched) in &live_answers {
        let restored = load.server.as_ref();
        let ok = match (served, restored.and_then(|r| Some((r, r.class_id(name)?)))) {
            (Ok(expect), Some((r, cid))) => {
                r.try_rank(cid, *q, K).is_ok_and(|got| same(expect, &got))
            }
            _ => false,
        };
        ledger.check(
            "check.restart",
            ok && same(searched, &load.engine.search(name, *q, K)),
        );
    }
    drop(load);

    let peak_rss = sys::peak_rss_mb();
    let query = Quantiles::of(&reads.latency_ms);
    let ingest = Quantiles::of(&writes.ingest_ms);
    let e2e = vec![
        median_metric("setup_s", "s", &setup_s),
        Metric {
            name: "query_p50_ms".into(),
            unit: "ms",
            value: query.p50,
            samples: query.n,
        },
        Metric {
            name: "query_p90_ms".into(),
            unit: "ms",
            value: query.p90,
            samples: query.n,
        },
        single("peak_rss_mb", "MB", peak_rss),
        single("snapshot_mb", "MB", snapshot_bytes as f64 / 1e6),
    ];

    let ungated = vec![
        Metric {
            name: "e2e.query_p99_ms".into(),
            unit: "ms",
            value: query.p99,
            samples: query.n,
        },
        Metric {
            name: "e2e.ingest_p50_ms".into(),
            unit: "ms",
            value: ingest.p50,
            samples: ingest.n,
        },
        Metric {
            name: "e2e.ingest_p90_ms".into(),
            unit: "ms",
            value: ingest.p90,
            samples: ingest.n,
        },
        single("e2e.restart_s", "s", open_s),
        Metric {
            name: "e2e.capacity_qps".into(),
            unit: "1/s",
            value: capacity,
            samples: capacity_probes.len(),
        },
    ];

    let layers = if traced {
        let t = |f: fn(&mgp_core::Timings) -> Duration| -> Vec<f64> {
            timings.iter().map(|x| secs(f(x))).collect()
        };
        let p50 = |name: &str, unit: &'static str, v: &[f64]| quantile_metric(name, unit, v, 0.5);
        let mean_of = |name: &str| {
            let v = trace.counts(name);
            Metric {
                name: name.to_string(),
                unit: "count",
                value: mean(&v),
                samples: v.len(),
            }
        };
        let splice = trace.durations_ms("graph.splice");
        let ingest_ms = trace.durations_ms("engine.ingest");
        let (instances, extensions): (f64, f64) = (
            trace.counts("matching.instances").iter().sum(),
            trace.counts("matching.extensions").iter().sum(),
        );
        let fe_windows = fe_after.windows - fe_before.windows;
        let fe_windowed = fe_after.windowed_requests - fe_before.windowed_requests;
        let fe_distinct = fe_after.distinct_executed - fe_before.distinct_executed;
        let hits = server_after.cache_hits - server_before.cache_hits;
        let lookups = hits + server_after.cache_misses - server_before.cache_misses;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let splice_p50 = median(&splice).unwrap_or(0.0);
        let retained = trace.counts("online.epoch_retained_bytes");
        vec![
            median_metric("mining.mine_s", "s", &t(|x| x.mining)),
            median_metric("matching.full_match_cpu_s", "s", &t(|x| x.matching)),
            p50(
                "matching.delta_ms",
                "ms",
                &trace.durations_ms("matching.delta"),
            ),
            mean_of("matching.proposals"),
            mean_of("matching.intersections"),
            mean_of("matching.extensions"),
            mean_of("matching.instances"),
            mean_of("matching.dedup_suppressed"),
            single(
                "matching.useful_ratio",
                "ratio",
                ratio(instances, extensions),
            ),
            p50("graph.splice_ms", "ms", &splice),
            single(
                "graph.splice_share",
                "ratio",
                ratio(splice_p50, median(&ingest_ms).unwrap_or(0.0)),
            ),
            median_metric("index.build_s", "s", &t(|x| x.indexing)),
            p50("index.fanout_ms", "ms", &trace.counts("index.fanout_ms")),
            median_metric("learning.train_s", "s", &t(|x| x.training)),
            p50("engine.ingest_ms", "ms", &ingest_ms),
            p50(
                "online.apply_delta_fused_ms",
                "ms",
                &trace.durations_ms("online.apply_delta_fused"),
            ),
            mean_of("online.fused_shard_visits"),
            mean_of("online.patched_entries"),
            mean_of("online.rebuilt_postings"),
            mean_of("online.invalidated_anchors"),
            Metric {
                name: "online.epoch_retained_bytes".into(),
                unit: "bytes",
                value: retained.iter().copied().fold(0.0, f64::max),
                samples: retained.len(),
            },
            quantile_metric("online.rank_hit_us_p50", "us", &hit_us, 0.5),
            quantile_metric("online.rank_hit_us_p99", "us", &hit_us, 0.99),
            quantile_metric("online.rank_miss_us_p50", "us", &miss_us, 0.5),
            quantile_metric("online.rank_miss_us_p99", "us", &miss_us, 0.99),
            Metric {
                name: "online.cache_hit_ratio".into(),
                unit: "ratio",
                value: ratio(hits as f64, lookups as f64),
                samples: lookups as usize,
            },
            median_metric("online.serve_build_s", "s", &serve_build_s),
            single(
                "frontend.coalesce_ratio",
                "ratio",
                ratio(fe_windowed as f64, fe_distinct as f64),
            ),
            single(
                "frontend.window_fill",
                "ratio",
                ratio(
                    fe_windowed as f64,
                    (fe_windows * fe_cfg.max_batch as u64) as f64,
                ),
            ),
            single("frontend.windows", "count", fe_windows as f64),
            single(
                "frontend.shed",
                "count",
                (fe_after.shed() - fe_before.shed()) as f64,
            ),
            single("persist.save_s", "s", save_s),
            single("persist.open_s", "s", open_s),
            single("persist.replayed", "count", replayed as f64),
            p50(
                "persist.journal_append_ms",
                "ms",
                &trace.durations_ms("persist.journal_append"),
            ),
            single(
                "persist.journal_bytes_per_delta",
                "bytes",
                ratio(probe_journal_bytes.unwrap_or(0) as f64, probe_deltas as f64),
            ),
            quantile_metric("harness.gen_late_p99_ms", "ms", &reads.late_ms, 0.99),
            single("harness.trace_spans", "count", trace.n_spans() as f64),
        ]
    } else {
        Vec::new()
    };

    Ok(PassOut {
        traced,
        metagraphs,
        e2e,
        ungated,
        layers,
        ledger,
        trace,
        capacity_probes,
    })
}
