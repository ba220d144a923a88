//! The parallel execution backend.
//!
//! [`ParallelBackend`] meters exactly like [`SequentialBackend`] but routes
//! exchanges through flat, pre-counted per-destination buffers (counting-sort
//! routing) and fans the per-machine metering work — word counting,
//! destination validation, per-destination tallies — out across threads with
//! rayon's fork-join primitives:
//!
//! 1. **Parallel metering pass**: sources are split into contiguous chunks,
//!    one task per thread; each task tallies per-source sent words,
//!    per-destination received words, and per-destination message counts for
//!    its chunk. Partials merge left-to-right in chunk order, so the merged
//!    tallies — and the *first* invalid destination in `(source, production)`
//!    order — are identical to a sequential scan.
//! 2. **Counting-sort routing**: every destination buffer is allocated once
//!    at its exact final size from the pre-counted tallies, then filled in a
//!    single deterministic `(source, production)`-order pass — no per-message
//!    `Vec` growth reallocations.
//!
//! The result is bit-identical to the sequential backend (same inboxes, same
//! errors, same metrics) — the equivalence is property-tested. The tallying
//! pass fans out across all cores; the routing fill stays a single
//! deterministic pass (pre-sized, so it is one move per message with no
//! reallocation), which bounds the end-to-end speedup on exchange-dominated
//! workloads — parallelizing the fill over destinations from the per-chunk
//! counts is the natural next step. Small exchanges fall back to an inline
//! single-chunk pass so thread fan-out never costs more than it saves.
//!
//! [`SequentialBackend`]: crate::SequentialBackend

use crate::backend::ExecutionBackend;
use crate::config::ClusterConfig;
use crate::error::{MpcError, Result};
use crate::metrics::Metrics;
use crate::word::WordSized;

use crate::tuning::exchange_inline_threshold;

/// A simulated MPC cluster with rayon-parallel metering and counting-sort
/// message routing. Observationally identical to
/// [`SequentialBackend`](crate::SequentialBackend).
///
/// # Examples
///
/// ```
/// use dgo_mpc::{ClusterConfig, ExecutionBackend, ParallelBackend};
///
/// let mut cluster = ParallelBackend::new(ClusterConfig::new(4, 1024));
/// let mut outbox: Vec<Vec<(usize, u64)>> = vec![vec![]; 4];
/// outbox[0].push((3, 99));
/// let inbox = cluster.exchange(outbox)?;
/// assert_eq!(inbox[3], vec![99]);
/// assert_eq!(cluster.metrics().rounds, 1);
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelBackend {
    config: ClusterConfig,
    metrics: Metrics,
    threads: usize,
}

/// Merged output of the parallel metering pass. Chunk partials concatenate
/// (`sent`) or sum (`received`, `counts`) in chunk order, so the merge of any
/// chunking equals the sequential scan.
struct MeterPass {
    /// Words sent per source machine, in source order.
    sent: Vec<usize>,
    /// Words received per destination machine.
    received: Vec<usize>,
    /// Messages (not words) per destination machine, for buffer pre-counting.
    counts: Vec<usize>,
    /// First out-of-range destination in `(source, production)` order.
    first_invalid: Option<usize>,
}

impl ParallelBackend {
    /// Creates a backend using all available parallelism.
    pub fn new(config: ClusterConfig) -> Self {
        ParallelBackend {
            config,
            metrics: Metrics::new(),
            threads: rayon::current_num_threads(),
        }
    }

    /// Overrides the thread fan-out (1 = always inline). Results are
    /// identical for every thread count; only wall-clock changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The metering pass: per-source sent words, per-destination received
    /// words and message counts, and the first invalid destination.
    fn meter<T: WordSized + Send + Sync>(
        &self,
        outbox: &[Vec<(usize, T)>],
        threads: usize,
    ) -> MeterPass {
        let machines = self.config.num_machines;
        rayon::chunk_map_reduce(
            outbox,
            threads,
            |_, chunk| {
                let mut pass = MeterPass {
                    sent: Vec::with_capacity(chunk.len()),
                    received: vec![0usize; machines],
                    counts: vec![0usize; machines],
                    first_invalid: None,
                };
                for msgs in chunk {
                    let mut src_sent = 0usize;
                    for (dst, payload) in msgs {
                        if *dst >= machines {
                            if pass.first_invalid.is_none() {
                                pass.first_invalid = Some(*dst);
                            }
                            continue;
                        }
                        let words = payload.words();
                        src_sent += words;
                        pass.received[*dst] += words;
                        pass.counts[*dst] += 1;
                    }
                    pass.sent.push(src_sent);
                }
                pass
            },
            |mut a, b| {
                a.sent.extend(b.sent);
                for (acc, add) in a.received.iter_mut().zip(&b.received) {
                    *acc += add;
                }
                for (acc, add) in a.counts.iter_mut().zip(&b.counts) {
                    *acc += add;
                }
                if a.first_invalid.is_none() {
                    a.first_invalid = b.first_invalid;
                }
                a
            },
        )
        .unwrap_or(MeterPass {
            sent: Vec::new(),
            received: vec![0; machines],
            counts: vec![0; machines],
            first_invalid: None,
        })
    }
}

impl ExecutionBackend for ParallelBackend {
    fn from_config(config: ClusterConfig) -> Self {
        ParallelBackend::new(config)
    }

    fn config(&self) -> &ClusterConfig {
        &self.config
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn into_metrics(self) -> Metrics {
        self.metrics
    }

    fn exchange<T: WordSized + Send + Sync>(
        &mut self,
        outbox: Vec<Vec<(usize, T)>>,
    ) -> Result<Vec<Vec<T>>> {
        let machines = self.config.num_machines;
        if outbox.len() != machines {
            return Err(MpcError::WrongClusterWidth {
                expected: machines,
                found: outbox.len(),
            });
        }
        let round = self.metrics.rounds + 1;
        let total_messages: usize = outbox.iter().map(Vec::len).sum();
        let threads = if total_messages < exchange_inline_threshold() {
            1
        } else {
            self.threads
        };
        let pass = self.meter(&outbox, threads);
        if let Some(machine) = pass.first_invalid {
            return Err(MpcError::UnknownMachine {
                machine,
                num_machines: machines,
            });
        }
        self.check_round_capacity(&pass.sent, &pass.received, round)?;
        let total: usize = pass.sent.iter().sum();
        let max_sent = pass.sent.iter().copied().max().unwrap_or(0);
        let max_received = pass.received.iter().copied().max().unwrap_or(0);
        self.metrics.record_round(total, max_sent, max_received);
        // Counting-sort routing: each destination buffer is pre-sized from
        // the metering pass, then filled in one (source, production)-order
        // pass — deterministic inbox order with zero growth reallocations.
        let mut inbox: Vec<Vec<T>> = pass
            .counts
            .iter()
            .map(|&count| Vec::with_capacity(count))
            .collect();
        for msgs in outbox {
            for (dst, payload) in msgs {
                inbox[dst].push(payload);
            }
        }
        Ok(inbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SequentialBackend;

    /// Deterministic pseudo-random outbox generator (SplitMix64; the crate
    /// deliberately has no rand dependency).
    fn random_outbox(machines: usize, per_machine: usize, mut seed: u64) -> Vec<Vec<(usize, u64)>> {
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..machines)
            .map(|_| {
                (0..per_machine)
                    .map(|_| ((next() as usize) % machines, next() % 1000))
                    .collect()
            })
            .collect()
    }

    type ExchangeOutcome = (
        Result<Vec<Vec<u64>>>,
        Result<Vec<Vec<u64>>>,
        Metrics,
        Metrics,
    );

    fn run_both(config: ClusterConfig, outbox: Vec<Vec<(usize, u64)>>) -> ExchangeOutcome {
        let mut seq = SequentialBackend::new(config);
        let mut par = ParallelBackend::new(config).with_threads(4);
        let seq_out = ExecutionBackend::exchange(&mut seq, outbox.clone());
        let par_out = par.exchange(outbox);
        (seq_out, par_out, seq.into_metrics(), par.into_metrics())
    }

    #[test]
    fn matches_sequential_on_random_traffic() {
        for seed in 0..8 {
            let outbox = random_outbox(16, 50, seed);
            let (seq_out, par_out, seq_metrics, par_metrics) =
                run_both(ClusterConfig::new(16, 4096), outbox);
            assert_eq!(seq_out.unwrap(), par_out.unwrap(), "seed {seed}");
            assert_eq!(seq_metrics, par_metrics, "seed {seed}");
        }
    }

    #[test]
    fn large_exchange_crosses_parallel_threshold() {
        // 64 machines x 128 messages = 8192 > the inline cutoff: the
        // chunked parallel path must still match sequential bit-for-bit.
        let outbox = random_outbox(64, 128, 42);
        assert!(outbox.iter().map(Vec::len).sum::<usize>() > exchange_inline_threshold());
        let (seq_out, par_out, seq_metrics, par_metrics) =
            run_both(ClusterConfig::new(64, 1 << 20), outbox);
        assert_eq!(seq_out.unwrap(), par_out.unwrap());
        assert_eq!(seq_metrics, par_metrics);
    }

    #[test]
    fn inbox_order_is_source_then_production() {
        let mut par = ParallelBackend::new(ClusterConfig::new(3, 64));
        let outbox: Vec<Vec<(usize, u64)>> = vec![
            vec![(2, 10), (2, 11)],
            vec![(2, 20)],
            vec![(2, 30), (2, 31)],
        ];
        let inbox = par.exchange(outbox).unwrap();
        assert_eq!(inbox[2], vec![10, 11, 20, 30, 31]);
        assert!(inbox[0].is_empty() && inbox[1].is_empty());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let outbox = random_outbox(32, 300, 7);
        let mut reference: Option<(Vec<Vec<u64>>, Metrics)> = None;
        for threads in [1, 2, 3, 8, 19] {
            let mut par =
                ParallelBackend::new(ClusterConfig::new(32, 1 << 20)).with_threads(threads);
            let inbox = par.exchange(outbox.clone()).unwrap();
            let metrics = par.into_metrics();
            match &reference {
                None => reference = Some((inbox, metrics)),
                Some((ref_inbox, ref_metrics)) => {
                    assert_eq!(&inbox, ref_inbox, "threads = {threads}");
                    assert_eq!(&metrics, ref_metrics, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn error_parity_unknown_machine() {
        let outbox: Vec<Vec<(usize, u64)>> = vec![vec![(0, 1)], vec![(9, 2), (17, 3)]];
        let (seq_out, par_out, _, _) = run_both(ClusterConfig::new(2, 64), outbox);
        // Both report the first out-of-range destination in scan order.
        assert_eq!(seq_out.unwrap_err(), par_out.unwrap_err());
    }

    #[test]
    fn outputs_identical_across_inline_cutoff() {
        // One message on either side of the inline cutoff: `< threshold`
        // takes the single-chunk inline pass, `>= threshold` the chunked
        // parallel one. Both must match sequential bit-for-bit (inboxes AND
        // metrics) at every thread count.
        let threshold = exchange_inline_threshold();
        let machines = 16usize;
        let config = ClusterConfig::new(machines, 1 << 20);
        for threads in [2, 4] {
            for total in [threshold - 1, threshold, threshold + 1] {
                let per_machine = total / machines;
                let mut outbox = random_outbox(machines, per_machine, 5);
                let mut extra = total - per_machine * machines;
                for msgs in outbox.iter_mut() {
                    if extra == 0 {
                        break;
                    }
                    msgs.push((3, 77));
                    extra -= 1;
                }
                assert_eq!(outbox.iter().map(Vec::len).sum::<usize>(), total);
                let mut seq = SequentialBackend::new(config);
                let seq_inbox = ExecutionBackend::exchange(&mut seq, outbox.clone()).unwrap();
                let mut par = ParallelBackend::new(config).with_threads(threads);
                let inbox = par.exchange(outbox).unwrap();
                let context = format!("threads = {threads}, total = {total}");
                assert_eq!(inbox, seq_inbox, "{context}");
                assert_eq!(par.into_metrics(), seq.into_metrics(), "{context}");
            }
        }
    }

    #[test]
    fn chunked_error_parity_unknown_machine_late_chunk() {
        // Above the cutoff the metering pass runs in source chunks. One
        // invalid destination sits in the *last* chunk and an earlier one in
        // a previous chunk: the chunk merge must keep the earlier one, as
        // the sequential scan does, and record no round.
        let machines = 16usize;
        let config = ClusterConfig::new(machines, 1 << 20);
        let mut outbox = random_outbox(machines, 512, 9);
        outbox[5].push((machines + 2, 1));
        outbox[machines - 1].push((machines + 5, 1));
        assert!(outbox.iter().map(Vec::len).sum::<usize>() > exchange_inline_threshold());
        let mut seq = SequentialBackend::new(config);
        let seq_err = ExecutionBackend::exchange(&mut seq, outbox.clone()).unwrap_err();
        assert_eq!(
            seq_err,
            MpcError::UnknownMachine {
                machine: machines + 2,
                num_machines: machines
            }
        );
        for threads in [2, 4] {
            let mut par = ParallelBackend::new(config).with_threads(threads);
            let err = par.exchange(outbox.clone()).unwrap_err();
            assert_eq!(err, seq_err, "threads = {threads}");
            assert_eq!(par.metrics().rounds, 0, "no round recorded on error");
        }
    }

    #[test]
    fn error_parity_capacity() {
        let outbox: Vec<Vec<(usize, u64)>> = vec![(0..9).map(|i| (1usize, i)).collect(), vec![]];
        let (seq_out, par_out, _, _) = run_both(ClusterConfig::new(2, 4), outbox);
        assert_eq!(seq_out.unwrap_err(), par_out.unwrap_err());
    }

    #[test]
    fn relaxed_violations_match() {
        let outbox: Vec<Vec<(usize, u64)>> = vec![(0..9).map(|i| (1usize, i)).collect(), vec![]];
        let (seq_out, par_out, seq_metrics, par_metrics) =
            run_both(ClusterConfig::new(2, 4).relaxed(), outbox);
        assert_eq!(seq_out.unwrap(), par_out.unwrap());
        assert_eq!(seq_metrics.violations, par_metrics.violations);
        assert_eq!(seq_metrics, par_metrics);
    }

    #[test]
    fn wrong_width_rejected() {
        let mut par = ParallelBackend::new(ClusterConfig::new(3, 64));
        let outbox: Vec<Vec<(usize, u64)>> = vec![vec![]];
        assert!(matches!(
            par.exchange(outbox),
            Err(MpcError::WrongClusterWidth {
                expected: 3,
                found: 1
            })
        ));
    }

    #[test]
    fn shared_metering_defaults_apply() {
        // charge_rounds / checkpoint_residency come from the trait defaults:
        // remainder spreading and strict checks behave exactly as sequential.
        let mut par = ParallelBackend::new(ClusterConfig::new(2, 64));
        par.charge_rounds(3, 13, 8).unwrap();
        assert_eq!(par.metrics().total_comm_words, 13);
        par.checkpoint_residency(&[4, 64]).unwrap();
        assert_eq!(par.metrics().peak_machine_memory, 64);
        assert!(par.checkpoint_residency(&[65, 0]).is_err());
    }
}
