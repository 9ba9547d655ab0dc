//! Parallel scenario execution.
//!
//! The figure suite runs each experiment 120 times; the runs are
//! independent deployments, so they shard across worker threads. Run
//! `i` always uses seed `seed_root.wrapping_add(i)` and results merge
//! back in run order, which makes the output a pure function of
//! `(seed_root, runs)` — byte-identical whether the executor uses one
//! worker or sixteen. The determinism property test in
//! `tests/parallel_determinism.rs` holds the executor to exactly that.

use crossbeam::channel;
use nb_discovery::scenario::{Scenario, ScenarioBuilder};
use nb_discovery::DiscoveryOutcome;

/// Shards independent runs across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    workers: usize,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::new()
    }
}

impl ParallelExecutor {
    /// An executor using every available core (capped at 16; override
    /// with `NB_BENCH_THREADS`).
    pub fn new() -> ParallelExecutor {
        let workers = std::env::var("NB_BENCH_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
            });
        ParallelExecutor { workers }
    }

    /// An executor with an explicit worker count.
    pub fn with_workers(workers: usize) -> ParallelExecutor {
        ParallelExecutor { workers: workers.max(1) }
    }

    /// The reference executor: runs every job inline on this thread, in
    /// index order. The parallel path must reproduce its output exactly.
    pub fn serial() -> ParallelExecutor {
        ParallelExecutor { workers: 1 }
    }

    /// Worker threads this executor uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job(0..count)` and returns the results in index order.
    ///
    /// Jobs are handed to workers through a shared queue, so stragglers
    /// never leave a thread idle while whole shards remain; ordering is
    /// restored on merge.
    pub fn run<R, F>(&self, count: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers == 1 || count <= 1 {
            return (0..count).map(job).collect();
        }
        let (task_tx, task_rx) = channel::unbounded::<usize>();
        let (result_tx, result_rx) = channel::unbounded::<(usize, R)>();
        for i in 0..count {
            task_tx.send(i).expect("queue open");
        }
        drop(task_tx);
        let job = &job;
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(count) {
                let task_rx = task_rx.clone();
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    while let Ok(i) = task_rx.recv() {
                        let out = job(i);
                        if result_tx.send((i, out)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(result_tx);
            let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
            while let Ok((i, out)) = result_rx.recv() {
                slots[i] = Some(out);
            }
            slots
                .into_iter()
                .enumerate()
                .map(|(i, slot)| slot.unwrap_or_else(|| panic!("run {i} produced no result")))
                .collect()
        })
    }

    /// Runs `runs` independent discoveries: run `i` builds a fresh
    /// scenario from `factory(seed_root.wrapping_add(i))` and performs
    /// one discovery in it. Outcomes come back in run order.
    pub fn run_discoveries<F>(
        &self,
        seed_root: u64,
        runs: usize,
        factory: F,
    ) -> Vec<DiscoveryOutcome>
    where
        F: Fn(u64) -> Scenario + Sync,
    {
        self.run(runs, |i| factory(seed_root.wrapping_add(i as u64)).run_discovery_once())
    }

    /// Like [`ParallelExecutor::run_discoveries`], also summing the
    /// engine events processed across every run's simulator (throughput
    /// accounting for the perf baseline).
    pub fn run_discoveries_counted<F>(
        &self,
        seed_root: u64,
        runs: usize,
        factory: F,
    ) -> (Vec<DiscoveryOutcome>, u64)
    where
        F: Fn(u64) -> Scenario + Sync,
    {
        let results = self.run(runs, |i| {
            let mut scenario = factory(seed_root.wrapping_add(i as u64));
            let outcome = scenario.run_discovery_once();
            (outcome, scenario.sim.events_processed())
        });
        let events = results.iter().map(|(_, e)| e).sum();
        (results.into_iter().map(|(o, _)| o).collect(), events)
    }

    /// Intra-run sharded mode: run `i` clones `builder`, swaps in seed
    /// `seed_root.wrapping_add(i)`, builds it and runs its discovery
    /// with `shard_workers` event workers and `shards` LP groups (`0` =
    /// one group per worker).
    /// Returns the outcomes in run order, the total engine events, and
    /// an FNV-1a fold of every run's engine digest — the value the
    /// shard-scaling gate compares across worker counts, which must be
    /// identical whatever `shard_workers`/`shards` are.
    pub fn run_discoveries_sharded(
        &self,
        seed_root: u64,
        runs: usize,
        shard_workers: usize,
        shards: usize,
        builder: &ScenarioBuilder,
    ) -> (Vec<DiscoveryOutcome>, u64, u64) {
        let results = self.run(runs, |i| {
            let mut b = builder.clone();
            b.seed = seed_root.wrapping_add(i as u64);
            let mut scenario = b.build();
            scenario.sim.set_workers(shard_workers);
            if shards > 0 {
                scenario.sim.set_shards(shards);
            }
            let outcome = scenario.run_discovery_once();
            (outcome, scenario.sim.events_processed(), scenario.digest())
        });
        let events = results.iter().map(|(_, e, _)| e).sum();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, _, d) in &results {
            for byte in d.to_le_bytes() {
                digest ^= byte as u64;
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (results.into_iter().map(|(o, _, _)| o).collect(), events, digest)
    }
}

/// A factory for the standard builder-driven scenarios: clones `builder`
/// per run and swaps in the run seed. Use with
/// [`ParallelExecutor::run_discoveries`].
pub fn seeded(builder: &ScenarioBuilder) -> impl Fn(u64) -> Scenario + Sync + '_ {
    move |seed| {
        let mut b = builder.clone();
        b.seed = seed;
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_broker::TopologyKind;
    use nb_net::wan::BLOOMINGTON;

    #[test]
    fn run_preserves_index_order() {
        let ex = ParallelExecutor::with_workers(4);
        let out = ex.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_executor_runs_inline() {
        let ex = ParallelExecutor::serial();
        assert_eq!(ex.workers(), 1);
        assert_eq!(ex.run(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn sharded_runs_are_worker_and_shard_invariant() {
        let builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 0);
        let (o1, e1, d1) =
            ParallelExecutor::serial().run_discoveries_sharded(41, 3, 1, 1, &builder);
        let (o2, e2, d2) =
            ParallelExecutor::serial().run_discoveries_sharded(41, 3, 2, 2, &builder);
        let (o4, e4, d4) =
            ParallelExecutor::with_workers(2).run_discoveries_sharded(41, 3, 4, 0, &builder);
        assert_eq!(d1, d2, "2 intra-run workers diverged from 1");
        assert_eq!(d1, d4, "4 intra-run workers diverged from 1");
        assert_eq!((e1, &o1), (e2, &o2));
        assert_eq!((e1, &o1), (e4, &o4));
    }

    #[test]
    fn parallel_discoveries_match_serial_exactly() {
        let builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 0);
        let serial = ParallelExecutor::serial().run_discoveries(41, 6, seeded(&builder));
        let parallel =
            ParallelExecutor::with_workers(4).run_discoveries(41, 6, seeded(&builder));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p);
        }
    }
}
