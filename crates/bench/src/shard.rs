//! Deterministic shard scheduler: independent work units (one per ISP,
//! or per resolver batch) each build their own seeded [`Lab`] and drain
//! their own telemetry; a pool of OS threads runs the queue and results
//! come back **in submission order**, so every artifact derived from
//! them is byte-identical between `--threads 1` and `--threads N`.
//!
//! This module is the only sanctioned home of `std::thread` in the
//! workspace (enforced by lucent-lint L3): determinism is an argument
//! about *this* scheduler, not about arbitrary thread use.

use std::collections::VecDeque;
use std::sync::Mutex;

use lucent_core::lab::Lab;
use lucent_obs::TelemetryDump;
use lucent_support::rng::{derive, Rng64};
use lucent_topology::{India, IndiaConfig};

/// Everything a shard job may touch: a private world built from the
/// shared config, and an RNG stream derived as `seed ⊕ shard_id` so no
/// two shards ever share randomness.
pub struct ShardCtx {
    /// Index of this work unit in submission order.
    pub shard_id: u64,
    /// Private world; never shared across shards.
    pub lab: Lab,
    /// Per-shard RNG stream (`derive(config.seed, shard_id)`).
    pub rng: Rng64,
}

/// A unit of work: runs against its own [`ShardCtx`], returns a row.
pub type Job<'a, T> = Box<dyn FnOnce(&mut ShardCtx) -> T + Send + 'a>;

/// One shard's output: the job's value plus the shard-local telemetry,
/// ready to be absorbed into a hub registry in submission order.
pub struct ShardOut<T> {
    /// The job's value.
    pub value: T,
    /// Drained metrics/events/spans of the shard's private world.
    pub dump: TelemetryDump,
    /// Simulator events the shard's network processed (for the run's
    /// event total, which the hub can no longer see).
    pub events: u64,
    /// Wall-clock seconds this shard's job ran for. Read by the
    /// `benchmark/` workspace for its busy-vs-idle pool accounting;
    /// nondeterministic, never merged into telemetry.
    pub busy_secs: f64,
}

/// The scheduler: a config every shard rebuilds its world from, a
/// thread budget, and an optional trace filter installed on each
/// shard's registry *after* the world is built (hub parity: `repro`
/// installs its filter only after `Scale::lab()` returns).
pub struct Pool {
    config: IndiaConfig,
    threads: usize,
    trace: Option<String>,
    prof: bool,
}

impl Pool {
    /// A pool over `threads` OS threads (clamped to ≥ 1). `trace` is a
    /// filter spec for shard registries; pass a spec already validated
    /// on the hub — an invalid one is ignored here rather than panicking
    /// mid-shard.
    pub fn new(config: IndiaConfig, threads: usize, trace: Option<String>) -> Pool {
        Pool { config, threads: threads.max(1), trace, prof: false }
    }

    /// Enable the deterministic profiler plane on every shard registry
    /// (mirroring how the hub enables it after the world is built).
    pub fn with_prof(mut self, on: bool) -> Pool {
        self.prof = on;
        self
    }

    /// Run every job against its own fresh [`ShardCtx`] and return the
    /// outputs **in submission order**, regardless of which thread
    /// finished first. With `threads == 1` (or a single job) everything
    /// runs inline on the caller's thread — no spawn, identical
    /// semantics, which is what makes the determinism claim testable.
    ///
    /// Per-shard profiler samples are labelled `tag/shard-NN`. The label
    /// depends only on the tag and the submission index, never on a
    /// thread id, so the merged registry stays byte-identical at any
    /// `--threads N`.
    pub fn run_tagged<T: Send>(&self, tag: &str, jobs: Vec<Job<'_, T>>) -> Vec<ShardOut<T>> {
        let n = jobs.len();
        if self.threads == 1 || n <= 1 {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| self.run_one(tag, i as u64, job))
                .collect();
        }
        let queue: Mutex<VecDeque<(usize, Job<'_, T>)>> =
            Mutex::new(jobs.into_iter().enumerate().collect());
        let results: Mutex<Vec<Option<ShardOut<T>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let next = lock(&queue).pop_front();
                    let Some((i, job)) = next else { break };
                    let out = self.run_one(tag, i as u64, job);
                    lock(&results)[i] = Some(out);
                });
            }
        });
        results.into_inner().unwrap_or_else(|p| p.into_inner()).into_iter().flatten().collect()
    }

    fn run_one<T>(&self, tag: &str, shard_id: u64, job: Job<'_, T>) -> ShardOut<T> {
        let lab = Lab::new(India::build(self.config.clone()));
        let obs = lab.india.net.telemetry();
        if let Some(spec) = &self.trace {
            let _ = obs.set_filter_spec(spec);
            obs.enable_spans(true);
        }
        if self.prof {
            obs.enable_prof(true);
        }
        let sw = lucent_support::bench::Stopwatch::start();
        let mut ctx = ShardCtx { shard_id, rng: derive(self.config.seed, shard_id), lab };
        let value = job(&mut ctx);
        let busy_secs = sw.elapsed_secs();
        let events = ctx.lab.india.net.events_processed();
        if self.prof {
            // Shard-local totals under a (tag, submission-index) label:
            // unique per shard, so counter merge and last-writer-wins
            // gauge merge are both order-insensitive.
            let label = format!("{tag}/shard-{shard_id:02}");
            obs.counter_add(lucent_obs::prof::SHARD_EVENTS, &label, events);
            obs.gauge_set(
                lucent_obs::prof::SHARD_QUEUE_HWM,
                &label,
                ctx.lab.india.net.queue_depth_hwm() as i64,
            );
        }
        let dump = obs.drain_dump();
        ShardOut { value, dump, events, busy_secs }
    }
}

/// Lock a mutex, recovering from poisoning (a panicked sibling shard
/// must not cascade into a second panic here).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The default `--threads`: available hardware parallelism, 1 if
/// unknown.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::IspId;

    fn isp_client_row(ctx: &mut ShardCtx, isp: IspId) -> String {
        let client = ctx.lab.client_of(isp);
        format!("{}:{client:?}:{}", isp.name(), ctx.rng.next_u64())
    }

    fn rows_at(threads: usize) -> (Vec<String>, String) {
        let pool = Pool::new(IndiaConfig::tiny(), threads, None);
        let isps = [IspId::Mtnl, IspId::Idea, IspId::Airtel];
        let jobs: Vec<Job<'_, String>> = isps
            .iter()
            .map(|&isp| Box::new(move |ctx: &mut ShardCtx| isp_client_row(ctx, isp)) as _)
            .collect();
        let outs = pool.run_tagged("pool", jobs);
        let hub = lucent_obs::Telemetry::new();
        let mut rows = Vec::new();
        for out in outs {
            rows.push(out.value);
            hub.absorb(out.dump);
        }
        (rows, hub.metrics_snapshot_pretty())
    }

    #[test]
    fn submission_order_and_bytes_survive_threading() {
        let (r1, m1) = rows_at(1);
        let (r4, m4) = rows_at(4);
        assert_eq!(r1, r4);
        assert_eq!(m1, m4);
        assert!(r1[0].starts_with("MTNL:"), "{r1:?}");
    }

    #[test]
    fn shard_rngs_are_distinct_streams() {
        let mut a = derive(7, 0);
        let mut b = derive(7, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
