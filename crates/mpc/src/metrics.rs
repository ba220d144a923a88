//! Round, communication, and memory metering.
//!
//! The experiment harness reads these counters to produce the round-complexity
//! and memory tables (experiments E1 and E5): the simulator's *only* job
//! beyond computing correct outputs is to meter faithfully.

use serde::{Deserialize, Serialize};

/// Statistics for one communication round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Global round index (1-based).
    pub round: u64,
    /// Total words moved across the cluster in this round.
    pub total_words: usize,
    /// Maximum words any single machine sent.
    pub max_sent: usize,
    /// Maximum words any single machine received.
    pub max_received: usize,
}

/// Cumulative metrics for a cluster's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Number of synchronous rounds executed.
    pub rounds: u64,
    /// Total words communicated over all rounds.
    pub total_comm_words: usize,
    /// Max over rounds of the max per-machine load (sent or received).
    pub max_round_load: usize,
    /// Peak resident words observed on any machine at a residency checkpoint.
    pub peak_machine_memory: usize,
    /// Peak total resident words across all machines at a checkpoint
    /// (the *global memory* actually used).
    pub peak_global_memory: usize,
    /// Peak resident view-tree arena bytes on any *simulated machine* (the
    /// flat-arena component of the certified words: the `ViewTree` blocks,
    /// two `u32` columns per tree, balanced over machines at the
    /// exponentiation checkpoints — 4 bytes per metered tree word). A
    /// per-machine figure like
    /// [`peak_machine_memory`](Metrics::peak_machine_memory) — concurrent
    /// instances occupy disjoint machine sets, so both merge directions take
    /// the max (it is *not* a summed host-wide total). Zero for algorithms
    /// that never hold trees.
    pub peak_tree_bytes: usize,
    /// Words the Lemma 4.1 view-tree bundles actually cost on the wire —
    /// their delta/varint-encoded lengths (`dgo_core::ViewTree::wire_words`)
    /// — summed over every delivered copy. A volume-like counter: a subset of
    /// [`total_comm_words`](Metrics::total_comm_words) that both merge
    /// directions sum. Zero for algorithms that never ship trees.
    pub bundle_wire_words: usize,
    /// Words the same bundles would have cost under the flat
    /// two-words-per-node model — the baseline the experiment tables print
    /// next to [`bundle_wire_words`](Metrics::bundle_wire_words) so the
    /// codec's certified saving is visible without a second run.
    pub bundle_flat_words: usize,
    /// Number of constraint violations recorded (only grows in relaxed mode;
    /// strict clusters error out instead).
    pub violations: u64,
    /// Per-round log (capped; see [`Metrics::ROUND_LOG_CAP`]).
    pub round_log: Vec<RoundStats>,
}

impl Metrics {
    /// Round log entries kept before the log stops growing (the scalar
    /// counters keep counting regardless).
    pub const ROUND_LOG_CAP: usize = 100_000;

    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one communication round.
    ///
    /// Backend-implementor API: called by
    /// [`ExecutionBackend`](crate::ExecutionBackend) implementations (and the
    /// trait's metering defaults); algorithm code never calls this directly.
    pub fn record_round(&mut self, total_words: usize, max_sent: usize, max_received: usize) {
        self.rounds += 1;
        self.total_comm_words += total_words;
        self.max_round_load = self.max_round_load.max(max_sent).max(max_received);
        if self.round_log.len() < Self::ROUND_LOG_CAP {
            self.round_log.push(RoundStats {
                round: self.rounds,
                total_words,
                max_sent,
                max_received,
            });
        }
    }

    /// Records a residency checkpoint: `peak` words on the fullest machine
    /// and `total` words over all machines. Backend-implementor API, like
    /// [`record_round`](Metrics::record_round).
    pub fn record_residency(&mut self, peak: usize, total: usize) {
        self.peak_machine_memory = self.peak_machine_memory.max(peak);
        self.peak_global_memory = self.peak_global_memory.max(total);
    }

    /// Records the per-machine resident tree-arena bytes at a checkpoint
    /// (`per_machine[i]` = arena bytes held by machine `i`; machines past
    /// the slice hold none, so a prefix suffices). Unlike
    /// [`record_residency`](Metrics::record_residency) this is pure
    /// observability — arena bytes are a host-footprint figure, not words,
    /// so no capacity constraint applies.
    pub fn record_tree_bytes(&mut self, per_machine: &[usize]) {
        let peak = per_machine.iter().copied().max().unwrap_or(0);
        self.peak_tree_bytes = self.peak_tree_bytes.max(peak);
    }

    /// Records one batch of Lemma 4.1 tree-bundle traffic: `wire` words as
    /// actually charged (post-codec) and `flat` words under the
    /// two-words-per-node baseline. Called by the algorithm layer (which
    /// owns the encoding), not by backends — the totals are therefore
    /// backend-independent by construction.
    pub fn record_bundle_words(&mut self, wire: usize, flat: usize) {
        self.bundle_wire_words += wire;
        self.bundle_flat_words += flat;
    }

    /// Records `count` soft constraint violations (relaxed mode).
    /// Backend-implementor API, like [`record_round`](Metrics::record_round).
    pub fn record_violations(&mut self, count: u64) {
        self.violations += count;
    }

    /// Merges another metrics object into this one, summing rounds and
    /// communication and taking maxima of the peaks. Used when an algorithm
    /// runs sub-phases on scratch clusters (e.g. per-part orientation after
    /// the Lemma 2.1 edge partition runs conceptually in parallel; rounds are
    /// then combined with [`Metrics::merge_parallel`] instead).
    pub fn merge_sequential(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.total_comm_words += other.total_comm_words;
        self.max_round_load = self.max_round_load.max(other.max_round_load);
        self.peak_machine_memory = self.peak_machine_memory.max(other.peak_machine_memory);
        self.peak_global_memory += other.peak_global_memory;
        self.peak_tree_bytes = self.peak_tree_bytes.max(other.peak_tree_bytes);
        self.bundle_wire_words += other.bundle_wire_words;
        self.bundle_flat_words += other.bundle_flat_words;
        self.violations += other.violations;
    }

    /// Merges metrics of phases that execute *concurrently* on disjoint parts
    /// of the cluster: rounds are the max, communication sums, memory sums.
    pub fn merge_parallel(&mut self, other: &Metrics) {
        self.rounds = self.rounds.max(other.rounds);
        self.total_comm_words += other.total_comm_words;
        self.max_round_load = self.max_round_load.max(other.max_round_load);
        self.peak_machine_memory = self.peak_machine_memory.max(other.peak_machine_memory);
        self.peak_global_memory += other.peak_global_memory;
        self.peak_tree_bytes = self.peak_tree_bytes.max(other.peak_tree_bytes);
        self.bundle_wire_words += other.bundle_wire_words;
        self.bundle_flat_words += other.bundle_flat_words;
        self.violations += other.violations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_accumulates() {
        let mut m = Metrics::new();
        m.record_round(100, 30, 40);
        m.record_round(50, 50, 10);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.total_comm_words, 150);
        assert_eq!(m.max_round_load, 50);
        assert_eq!(m.round_log.len(), 2);
        assert_eq!(m.round_log[1].round, 2);
    }

    #[test]
    fn residency_tracks_peaks() {
        let mut m = Metrics::new();
        m.record_residency(20, 35);
        m.record_residency(1, 3);
        assert_eq!(m.peak_machine_memory, 20);
        assert_eq!(m.peak_global_memory, 35);
    }

    #[test]
    fn residency_empty_is_noop() {
        let mut m = Metrics::new();
        m.record_residency(0, 0);
        assert_eq!(m.peak_machine_memory, 0);
        assert_eq!(m.peak_global_memory, 0);
    }

    #[test]
    fn merge_sequential_sums_rounds() {
        let mut a = Metrics::new();
        a.record_round(10, 5, 5);
        let mut b = Metrics::new();
        b.record_round(20, 9, 9);
        b.record_round(20, 9, 9);
        a.merge_sequential(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.total_comm_words, 50);
        assert_eq!(a.max_round_load, 9);
    }

    #[test]
    fn merge_parallel_takes_max_rounds() {
        let mut a = Metrics::new();
        a.record_round(10, 5, 5);
        let mut b = Metrics::new();
        b.record_round(20, 9, 9);
        b.record_round(20, 9, 9);
        a.merge_parallel(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.total_comm_words, 50);
    }

    #[test]
    fn tree_bytes_track_per_machine_peak() {
        let mut m = Metrics::new();
        m.record_tree_bytes(&[100, 300, 50]);
        m.record_tree_bytes(&[10, 10, 10]);
        assert_eq!(m.peak_tree_bytes, 300);
        m.record_tree_bytes(&[]);
        assert_eq!(m.peak_tree_bytes, 300);
        let mut other = Metrics::new();
        other.record_tree_bytes(&[700]);
        m.merge_parallel(&other);
        assert_eq!(m.peak_tree_bytes, 700);
        let mut seq = Metrics::new();
        seq.merge_sequential(&m);
        assert_eq!(seq.peak_tree_bytes, 700);
    }

    #[test]
    fn bundle_words_sum_in_both_merge_directions() {
        let mut m = Metrics::new();
        m.record_bundle_words(30, 100);
        m.record_bundle_words(10, 40);
        assert_eq!(m.bundle_wire_words, 40);
        assert_eq!(m.bundle_flat_words, 140);
        let mut other = Metrics::new();
        other.record_bundle_words(5, 20);
        let mut par = m.clone();
        par.merge_parallel(&other);
        assert_eq!(par.bundle_wire_words, 45);
        assert_eq!(par.bundle_flat_words, 160);
        let mut seq = m.clone();
        seq.merge_sequential(&other);
        assert_eq!(seq.bundle_wire_words, 45);
        assert_eq!(seq.bundle_flat_words, 160);
    }

    #[test]
    fn violations_count() {
        let mut m = Metrics::new();
        m.record_violations(1);
        m.record_violations(2);
        assert_eq!(m.violations, 3);
    }
}
