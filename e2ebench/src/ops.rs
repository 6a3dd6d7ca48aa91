//! Seeded operation streams: the reads and the churn edges a run replays.
//!
//! The graph is fixed per workload, and so is the sequence of
//! anchor–attribute edges that churn: single-edge ingest cost spans two
//! orders of magnitude with the attribute's degree, and a slow delta delays
//! the one due after it, so a per-seed edge draw or order would move
//! `ingest_p90_ms` more than any code change. The seed draws the reads:
//! which anchors are hot and the order they come in. The same seed gives a
//! byte-identical stream ([`OpStream::to_bytes`]).

use crate::workload::ReadMix;
use mgp_graph::{Graph, NodeId, TypeId};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One read: rank the top-k partners of `anchor` under a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    /// Index into the workload's two classes.
    pub class: u8,
    /// The query anchor.
    pub anchor: NodeId,
}

/// Seed of the fixed churn-edge draw (part of the corpus, like the graph).
const CHURN_CORPUS_SEED: u64 = 0x6d67_705f_6368_7572;

/// One churn edge: inserted by one delta, removed by the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEdge {
    /// The anchor endpoint.
    pub anchor: NodeId,
    /// The attribute endpoint (absent from the anchor's neighbours).
    pub attr: NodeId,
}

/// The reads and churn edges of one run, in replay order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStream {
    /// Reads, replayed cyclically by every read phase.
    pub reads: Vec<Read>,
    /// Churn edges, the same for every seed: the measured write phase
    /// replays them all, every capacity probe a prefix.
    pub churn: Vec<ChurnEdge>,
}

impl OpStream {
    /// Draws `n_reads` reads over `graph`, beside the workload's `n_churn`
    /// churn edges.
    pub fn generate(
        graph: &Graph,
        anchor_type: TypeId,
        mix: ReadMix,
        seed: u64,
        n_reads: usize,
        n_churn: usize,
    ) -> OpStream {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut anchors: Vec<NodeId> = graph.nodes_of_type(anchor_type).to_vec();
        assert!(!anchors.is_empty(), "workload graph has no anchors");
        // The seed picks which anchors are hot: rank r is anchors[r].
        shuffle(&mut anchors, &mut rng);
        let cdf: Vec<f64> = match mix {
            ReadMix::Zipf => {
                let mut acc = 0.0;
                (0..anchors.len())
                    .map(|r| {
                        acc += 1.0 / (r + 1) as f64;
                        acc
                    })
                    .collect()
            }
            ReadMix::Uniform => Vec::new(),
        };
        let reads = (0..n_reads)
            .map(|_| {
                let class = (rng.next_u32() & 1) as u8;
                let rank = match mix {
                    ReadMix::Uniform => below(&mut rng, anchors.len()),
                    ReadMix::Zipf => {
                        let x = unit(&mut rng) * cdf[cdf.len() - 1];
                        cdf.partition_point(|&c| c < x).min(anchors.len() - 1)
                    }
                };
                Read {
                    class,
                    anchor: anchors[rank],
                }
            })
            .collect();

        let attrs: Vec<NodeId> = graph
            .nodes()
            .filter(|&v| graph.node_type(v) != anchor_type && graph.degree(v) > 0)
            .collect();
        assert!(!attrs.is_empty(), "workload graph has no attributes");
        let mut corpus = ChaCha8Rng::seed_from_u64(CHURN_CORPUS_SEED);
        let all_anchors = graph.nodes_of_type(anchor_type);
        let mut churn = Vec::with_capacity(n_churn);
        while churn.len() < n_churn {
            let anchor = all_anchors[below(&mut corpus, all_anchors.len())];
            let attr = attrs[below(&mut corpus, attrs.len())];
            if !graph.has_edge(anchor, attr) {
                churn.push(ChurnEdge { anchor, attr });
            }
        }
        OpStream { reads, churn }
    }

    /// The stream's canonical encoding (little-endian): read count, reads
    /// as `(class u8, anchor u32)`, churn count, edges as two `u32`s.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 5 * self.reads.len() + 8 * self.churn.len());
        out.extend_from_slice(&(self.reads.len() as u64).to_le_bytes());
        for r in &self.reads {
            out.push(r.class);
            out.extend_from_slice(&r.anchor.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.churn.len() as u64).to_le_bytes());
        for e in &self.churn {
            out.extend_from_slice(&e.anchor.0.to_le_bytes());
            out.extend_from_slice(&e.attr.0.to_le_bytes());
        }
        out
    }
}

/// Uniform in `[0, n)` (n > 0); the modulo bias is below 2⁻³² here.
fn below(rng: &mut ChaCha8Rng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Uniform in `[0, 1)` with 53 random bits.
fn unit(rng: &mut ChaCha8Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, below(rng, i + 1));
    }
}
