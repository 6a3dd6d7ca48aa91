//! The three workloads: which graph, which patterns, which traffic.

use mgp_datagen::facebook::{generate_facebook, FacebookConfig, CLASSMATE, FAMILY};
use mgp_datagen::linkedin::{generate_linkedin, LinkedInConfig, COLLEGE, COWORKER};
use mgp_datagen::{ClassId, Dataset};
use std::time::Duration;

/// Results per query, on every workload.
pub const K: usize = 10;

/// Mining support threshold, on every workload.
pub const MIN_SUPPORT: u64 = 5;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipfian reads on the Facebook graph, no writes while reading: the
    /// front-end coalescing and cache-hit path.
    ReadHot,
    /// Zipfian reads beside single-edge churn on the same graph: the
    /// matching- and patch-bound ingest path.
    DenseChurn,
    /// Uniform reads beside single-edge churn on the 50k-user LinkedIn
    /// graph: the splice-bound ingest path and the cache-miss sweep.
    SparseLargeChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ReadHot,
        Workload::DenseChurn,
        Workload::SparseLargeChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::DenseChurn => "dense-churn",
            Workload::SparseLargeChurn => "sparse-large-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters at a scale.
    pub fn spec(self, scale: Scale) -> Spec {
        let tiny = scale == Scale::Tiny;
        let facebook = if tiny {
            Corpus::Facebook(FacebookConfig::tiny(7))
        } else {
            Corpus::Facebook(FacebookConfig::default())
        };
        let base = Spec {
            corpus: facebook,
            max_nodes: 5,
            read_rate: 20_000.0,
            mix: ReadMix::Zipf,
            churn_beside_reads: false,
            // Single-edge ingest on this graph has p90 ≈ 100 ms under load;
            // the period stays ≥ 1.5× that so ingest never queues behind
            // itself.
            write_period: Duration::from_millis(200),
            setups: 3,
        };
        let spec = match self {
            // Without reads beside it, ingest p90 here is ≈ 60 ms.
            Workload::ReadHot => Spec {
                write_period: Duration::from_millis(100),
                ..base
            },
            Workload::DenseChurn => Spec {
                read_rate: 2_000.0,
                churn_beside_reads: true,
                ..base
            },
            Workload::SparseLargeChurn => Spec {
                corpus: if tiny {
                    Corpus::LinkedIn(LinkedInConfig::tiny(11))
                } else {
                    Corpus::LinkedIn(LinkedInConfig::paper_scale())
                },
                max_nodes: 3,
                read_rate: 10_000.0,
                mix: ReadMix::Uniform,
                churn_beside_reads: true,
                write_period: Duration::from_millis(100),
                ..base
            },
        };
        if tiny {
            Spec {
                read_rate: spec.read_rate / 10.0,
                write_period: Duration::from_millis(20),
                setups: 1,
                ..spec
            }
        } else {
            spec
        }
    }
}

/// Graph size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// A few hundred nodes, for the benchmark's own tests.
    Tiny,
}

/// How read anchors are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    /// Zipf (exponent 1) over a seeded ranking of the anchors.
    Zipf,
    /// Uniform over the anchors.
    Uniform,
}

/// The generated graph a workload runs on. Its generator seed is fixed,
/// so every run of a workload sees the same corpus; `--seed` draws only
/// the traffic.
#[derive(Debug, Clone)]
pub enum Corpus {
    /// The Facebook-like graph (classes family / classmate).
    Facebook(FacebookConfig),
    /// The LinkedIn-like graph (classes college / coworker).
    LinkedIn(LinkedInConfig),
}

impl Corpus {
    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        match self {
            Corpus::Facebook(c) => generate_facebook(c),
            Corpus::LinkedIn(c) => generate_linkedin(c),
        }
    }

    /// The two served classes: engine name and ground-truth label.
    pub fn classes(&self) -> [(&'static str, ClassId); 2] {
        match self {
            Corpus::Facebook(_) => [("family", FAMILY), ("classmate", CLASSMATE)],
            Corpus::LinkedIn(_) => [("college", COLLEGE), ("coworker", COWORKER)],
        }
    }
}

/// Everything a run of one workload is parameterised by.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The graph.
    pub corpus: Corpus,
    /// Largest mined metagraph, in nodes.
    pub max_nodes: usize,
    /// Offered read rate of the measured phase, queries per second.
    pub read_rate: f64,
    /// Anchor distribution of the reads.
    pub mix: ReadMix,
    /// Whether the write schedule runs beside the reads; if not, ingest is
    /// measured in a write-only phase after them.
    pub churn_beside_reads: bool,
    /// One single-edge delta is due every period.
    pub write_period: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}
