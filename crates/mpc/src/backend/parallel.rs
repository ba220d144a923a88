//! The parallel execution backend.
//!
//! [`ParallelBackend`] routes and meters exactly like [`SequentialBackend`]
//! — one metering pass, one counting-sort scatter into a flat inbox — but
//! splits the metering into contiguous machine ranges, one pool task per
//! thread: word counting and destination validation over source ranges,
//! then the receive tallies over destination ranges. Range tallies fold
//! left to right in machine order, so the loads, the first invalid
//! destination in `(source, production)` order and the first machine over
//! capacity are identical to a sequential scan.
//!
//! The scatter itself stays one deterministic pass: it is a counting sort of
//! one flat array, one move per message. Small exchanges tally inline on the
//! calling thread so fan-out never costs more than it saves.
//!
//! [`SequentialBackend`]: crate::SequentialBackend

use crate::backend::{metered_exchange, ExecutionBackend, Tally};
use crate::config::ClusterConfig;
use crate::error::Result;
use crate::metrics::Metrics;
use crate::per_machine::PerMachine;
use crate::tuning::exchange_inline_threshold;
use crate::word::WordSized;
use std::ops::Range;

/// A simulated MPC cluster whose per-round metering runs in machine ranges
/// on the rayon pool. Observationally identical to
/// [`SequentialBackend`](crate::SequentialBackend).
///
/// # Examples
///
/// ```
/// use dgo_mpc::{ClusterConfig, ExecutionBackend, ParallelBackend, PerMachine};
///
/// let mut cluster = ParallelBackend::new(ClusterConfig::new(4, 1024));
/// let mut outbox: Vec<Vec<(usize, u64)>> = vec![vec![]; 4];
/// outbox[0].push((3, 99));
/// let inbox = cluster.exchange(PerMachine::from(outbox))?;
/// assert_eq!(inbox[3], [99]);
/// assert_eq!(cluster.metrics().rounds, 1);
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelBackend {
    config: ClusterConfig,
    metrics: Metrics,
    threads: usize,
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
}

/// Tallies `0..machines` in `threads` near-equal contiguous ranges, one pool
/// task each, folded in machine order.
fn tally_chunked(
    machines: usize,
    threads: usize,
    tally: &(dyn Fn(Range<usize>) -> Tally + Sync),
) -> Tally {
    let chunk = machines.div_ceil(threads.clamp(1, machines.max(1))).max(1);
    let tasks = machines.div_ceil(chunk);
    rayon::chunk_map_collect_range(tasks, tasks, |t| {
        tally(t * chunk..((t + 1) * chunk).min(machines))
    })
    .into_iter()
    .fold(Tally::default(), Tally::then)
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
        outbox: PerMachine<(usize, T)>,
    ) -> Result<PerMachine<T>> {
        let threads = if outbox.len() < exchange_inline_threshold() {
            1
        } else {
            self.threads
        };
        metered_exchange(self, outbox, |machines, tally| {
            tally_chunked(machines, threads, tally)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SequentialBackend;
    use crate::error::MpcError;

    /// Deterministic pseudo-random outbox generator (SplitMix64; the crate
    /// deliberately has no rand dependency).
    fn random_outbox(machines: usize, per_machine: usize, seed: u64) -> PerMachine<(usize, u64)> {
        PerMachine::from(random_lists(machines, per_machine, seed))
    }

    fn random_lists(machines: usize, per_machine: usize, mut seed: u64) -> Vec<Vec<(usize, u64)>> {
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
        Result<PerMachine<u64>>,
        Result<PerMachine<u64>>,
        Metrics,
        Metrics,
    );

    fn run_both(config: ClusterConfig, outbox: Vec<Vec<(usize, u64)>>) -> ExchangeOutcome {
        let outbox = PerMachine::from(outbox);
        let mut seq = SequentialBackend::new(config);
        let mut par = ParallelBackend::new(config).with_threads(4);
        let seq_out = ExecutionBackend::exchange(&mut seq, outbox.clone());
        let par_out = par.exchange(outbox);
        (seq_out, par_out, seq.into_metrics(), par.into_metrics())
    }

    #[test]
    fn matches_sequential_on_random_traffic() {
        for seed in 0..8 {
            let outbox = random_lists(16, 50, seed);
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
        let outbox = random_lists(64, 128, 42);
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
        let inbox = par.exchange(PerMachine::from(outbox)).unwrap();
        assert_eq!(inbox[2], [10, 11, 20, 30, 31]);
        assert!(inbox[0].is_empty() && inbox[1].is_empty());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let outbox = random_outbox(32, 300, 7);
        let mut reference: Option<(PerMachine<u64>, Metrics)> = None;
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
                let mut outbox = random_lists(machines, per_machine, 5);
                let mut extra = total - per_machine * machines;
                for msgs in outbox.iter_mut() {
                    if extra == 0 {
                        break;
                    }
                    msgs.push((3, 77));
                    extra -= 1;
                }
                assert_eq!(outbox.iter().map(Vec::len).sum::<usize>(), total);
                let outbox = PerMachine::from(outbox);
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
        let mut outbox = random_lists(machines, 512, 9);
        outbox[5].push((machines + 2, 1));
        outbox[machines - 1].push((machines + 5, 1));
        let outbox = PerMachine::from(outbox);
        assert!(outbox.len() > exchange_inline_threshold());
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
            par.exchange(PerMachine::from(outbox)),
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
