//! Deterministic shard scheduler: independent work units (one per ISP,
//! or per resolver batch) each run on a private [`Lab`] and drain their
//! own telemetry; a pool of OS threads runs the queue and results
//! come back **in submission order**, so every artifact derived from
//! them is byte-identical between `--threads 1` and `--threads N`.
//!
//! A job's world is not built for it. Each worker builds one pristine
//! template on its first job and runs every job on a copy-on-write
//! clone of it ([`India`]'s `clone`); its last job takes the template
//! itself. A clone is indistinguishable from a fresh build, so a
//! `run_tagged` call builds `min(threads, jobs)` worlds instead of
//! `jobs` and nothing a job can observe changes. The template is per
//! worker, not per pool, because a world holds `Rc`s and a `Telemetry`
//! and so cannot cross threads: each template lives and dies on the
//! thread that built it.
//!
//! This module is the only sanctioned home of threads and locks in the
//! workspace (`clippy.toml` disallows them everywhere else): determinism
//! is an argument about *this* scheduler, not about arbitrary thread use.

use std::collections::VecDeque;
use std::sync::MutexGuard;

use lucent_core::lab::Lab;
use lucent_obs::{FilterError, Telemetry, TelemetryDump};
use lucent_topology::{India, IndiaConfig};

/// Everything a shard job may touch: a private world equal to a fresh
/// build of the shared config. A job has no identity or randomness of
/// its own; whatever it draws comes from that world's seed.
pub struct ShardCtx {
    /// Private world; nothing a job does to it is visible to another.
    pub lab: Lab,
}

/// A unit of work: runs against its own [`ShardCtx`], returns a row.
pub type Job<'a, T> = Box<dyn FnOnce(&mut ShardCtx) -> T + Send + 'a>;

/// One shard's output: the job's value plus the shard-local telemetry,
/// ready to be absorbed into a run's registry in submission order.
pub struct ShardOut<T> {
    /// The job's value.
    pub value: T,
    /// Drained metrics/events/spans of the shard's private world.
    pub dump: TelemetryDump,
    /// Simulator events the shard's network processed (for the run's
    /// event total).
    pub events: u64,
    /// Wall-clock seconds this shard's job ran for. Read by the
    /// `benchmark/` workspace for its busy-vs-idle pool accounting;
    /// nondeterministic, never merged into telemetry.
    pub busy_secs: f64,
}

/// The scheduler: the config of every shard's world, a thread budget,
/// and an optional trace filter and profiler, installed on each shard's
/// registry by [`instrument`] after its world is made.
pub struct Pool {
    config: IndiaConfig,
    threads: usize,
    trace: Option<String>,
    prof: bool,
}

impl Pool {
    /// A pool over `threads` OS threads (clamped to ≥ 1). `trace` is a
    /// filter spec for shard registries; pass a spec already validated
    /// (as [`Driver::new`](crate::drive::Driver::new) does) — an invalid
    /// one is ignored here rather than panicking mid-shard.
    pub fn new(config: IndiaConfig, threads: usize, trace: Option<String>) -> Pool {
        Pool { config, threads: threads.max(1), trace, prof: false }
    }

    /// Enable the deterministic profiler plane on every shard registry,
    /// after its world is made.
    pub fn with_prof(mut self, on: bool) -> Pool {
        self.prof = on;
        self
    }

    /// Run every job against its own fresh [`ShardCtx`] and return the
    /// outputs **in submission order**, regardless of which thread
    /// finished first. With `threads == 1` (or a single job) everything
    /// runs inline on the caller's thread — no spawn, identical
    /// semantics, which is what makes the determinism claim testable.
    /// Builds at most `min(threads, jobs)` worlds (see the module docs).
    ///
    /// Per-shard profiler samples are labelled `tag/shard-NN`. The label
    /// depends only on the tag and the submission index, never on a
    /// thread id, so the merged registry stays byte-identical at any
    /// `--threads N`.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the shard pool: a mutexed queue drained by scoped workers, merged in submission order"
    )]
    pub fn run_tagged<T: Send>(&self, tag: &str, jobs: Vec<Job<'_, T>>) -> Vec<ShardOut<T>> {
        let n = jobs.len();
        if self.threads == 1 || n <= 1 {
            let mut template = None;
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| self.run_one(self.world(&mut template, i + 1 == n), tag, i, job))
                .collect();
        }
        let queue: std::sync::Mutex<VecDeque<(usize, Job<'_, T>)>> =
            std::sync::Mutex::new(jobs.into_iter().enumerate().collect());
        let results: std::sync::Mutex<Vec<Option<ShardOut<T>>>> =
            std::sync::Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| {
                    let mut template = None;
                    loop {
                        // Popping the queue empty makes this the worker's
                        // last job, which may then take the template.
                        let next = {
                            let mut q = lock(&queue);
                            q.pop_front().map(|job| (job, q.is_empty()))
                        };
                        let Some(((i, job), last)) = next else { break };
                        let out = self.run_one(self.world(&mut template, last), tag, i, job);
                        lock(&results)[i] = Some(out);
                    }
                });
            }
        });
        results.into_inner().unwrap_or_else(|p| p.into_inner()).into_iter().flatten().collect()
    }

    /// A job's world: a clone of the worker's `template`, which is
    /// built on first use; the worker's `last` job takes the template.
    fn world(&self, template: &mut Option<India>, last: bool) -> India {
        let pristine = template.take().unwrap_or_else(|| India::build(self.config.clone()));
        if last {
            return pristine;
        }
        let world = pristine.clone();
        *template = Some(pristine);
        world
    }

    /// Run `job` inline on `world`, set up like every shard (trace
    /// filter, spans, profiler) and profiled as `tag/shard-NN` with
    /// `NN` = `index`; neither the job nor its value crosses a thread.
    pub(crate) fn run_one<T>(
        &self,
        world: India,
        tag: &str,
        index: usize,
        job: impl FnOnce(&mut ShardCtx) -> T,
    ) -> ShardOut<T> {
        let lab = Lab::new(world);
        let obs = lab.india.net.telemetry();
        let _ = instrument(&obs, self.trace.as_deref(), self.prof);
        let sw = lucent_support::bench::Stopwatch::start();
        let mut ctx = ShardCtx { lab };
        let value = job(&mut ctx);
        let busy_secs = sw.elapsed_secs();
        let events = ctx.lab.india.net.events_processed();
        if self.prof {
            // Shard-local totals under a (tag, submission-index) label:
            // unique per shard, so counter merge and last-writer-wins
            // gauge merge are both order-insensitive.
            let label = format!("{tag}/shard-{index:02}");
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

/// Set a freshly built world's registry up for a run: the filter
/// `spec` with span collection, and the profiler when `prof`. Every
/// world of a run, and the [`Driver`](crate::drive::Driver)'s registry,
/// go through here, so the profiler sees the experiments and not the
/// build.
pub(crate) fn instrument(
    obs: &Telemetry,
    spec: Option<&str>,
    prof: bool,
) -> Result<(), FilterError> {
    obs.enable_spans(spec.is_some());
    obs.enable_prof(prof);
    spec.map_or(Ok(()), |spec| obs.set_filter_spec(spec))
}

/// Lock a mutex, recovering from poisoning (a panicked sibling shard
/// must not cascade into a second panic here).
#[expect(clippy::disallowed_types, reason = "the shard pool's queue and result locks")]
fn lock<T>(m: &std::sync::Mutex<T>) -> MutexGuard<'_, T> {
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
        format!("{}:{client:?}", isp.name())
    }

    fn rows_at(threads: usize) -> (Vec<String>, String) {
        let pool = Pool::new(IndiaConfig::tiny(), threads, None);
        let isps = [IspId::Mtnl, IspId::Idea, IspId::Airtel];
        let jobs: Vec<Job<'_, String>> = isps
            .iter()
            .map(|&isp| Box::new(move |ctx: &mut ShardCtx| isp_client_row(ctx, isp)) as _)
            .collect();
        let outs = pool.run_tagged("pool", jobs);
        let merged = lucent_obs::Telemetry::new();
        let mut rows = Vec::new();
        for out in outs {
            rows.push(out.value);
            merged.absorb(out.dump);
        }
        (rows, merged.metrics_snapshot_pretty())
    }

    #[test]
    fn submission_order_and_bytes_survive_threading() {
        let (r1, m1) = rows_at(1);
        let (r4, m4) = rows_at(4);
        assert_eq!(r1, r4);
        assert_eq!(m1, m4);
        assert!(r1[0].starts_with("MTNL:"), "{r1:?}");
    }
}
