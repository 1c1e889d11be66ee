//! The sharded experiment driver: turns each experiment's per-ISP (or
//! per-resolver-chunk) entry points into shard jobs, runs them on a
//! [`Pool`], and merges rows **and telemetry** back in submission
//! order. `repro` and the determinism integration test share this code,
//! so what CI proves byte-identical is exactly what users run.

use lucent_core::experiments::{anonymity, evasion, fig2, race, table1, triggers};
use lucent_core::probe::dns_scan::{survey_batch, ResolverScan};
use lucent_obs::prof::PoolWall;
use lucent_obs::Telemetry;
use lucent_support::bench::Stopwatch;
use lucent_topology::IspId;

use crate::shard::{Job, Pool, ShardOut};
use crate::Scale;

/// Resolver-chunk size for the Figure 2 survey phase. Fixed (never a
/// function of the thread count) so the shard decomposition — and with
/// it every derived artifact — is identical at any `--threads N`.
const RESOLVER_CHUNK: usize = 16;

/// A sharded experiment run: scale, thread budget, optional trace spec
/// replicated onto every shard registry.
pub struct Driver {
    scale: Scale,
    threads: usize,
    trace: Option<String>,
    prof: bool,
    shard_events: std::cell::Cell<u64>,
    walls: std::cell::RefCell<Vec<PoolWall>>,
}

impl Driver {
    /// A driver for `scale` over `threads` OS threads; `trace` is a
    /// filter spec (already validated on the hub) replicated onto every
    /// shard registry.
    pub fn new(scale: Scale, threads: usize, trace: Option<String>) -> Driver {
        Driver {
            scale,
            threads,
            trace,
            prof: false,
            shard_events: std::cell::Cell::new(0),
            walls: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Enable the profiler on every shard registry, and collect
    /// wall-clock pool accounting ([`Driver::pool_walls`]) per run.
    pub fn with_prof(mut self, on: bool) -> Driver {
        self.prof = on;
        self
    }

    /// Simulator events processed by all shards so far — the hub
    /// network never sees these, so events/s accounting needs them.
    pub fn shard_events(&self) -> u64 {
        self.shard_events.get()
    }

    /// Wall accounting for every sharded pool run so far, in run order.
    /// Empty unless the driver was built [`Driver::with_prof`].
    pub fn pool_walls(&self) -> Vec<PoolWall> {
        self.walls.borrow().clone()
    }

    fn pool(&self) -> Pool {
        Pool::new(self.scale.config(), self.threads, self.trace.clone()).with_prof(self.prof)
    }

    /// Run `jobs` on a fresh pool under `tag`, recording busy-vs-idle
    /// wall stats when profiling (wall-clock plane only — the shard
    /// outputs themselves stay deterministic).
    fn run_pool<'a, T: Send>(&self, tag: &'static str, jobs: Vec<Job<'a, T>>) -> Vec<ShardOut<T>> {
        let sw = Stopwatch::start();
        let outs = self.pool().run_tagged(tag, jobs);
        if self.prof {
            self.walls.borrow_mut().push(PoolWall {
                tag: tag.to_string(),
                wall_secs: sw.elapsed_secs(),
                busy_secs: outs.iter().map(|o| o.busy_secs).collect(),
            });
        }
        outs
    }

    /// Absorb shard telemetry into `hub` in submission order and return
    /// the values in the same order.
    fn merge<T>(&self, hub: &Telemetry, outs: Vec<ShardOut<T>>) -> Vec<T> {
        outs.into_iter()
            .map(|out| {
                self.shard_events.set(self.shard_events.get().saturating_add(out.events));
                hub.absorb(out.dump);
                out.value
            })
            .collect()
    }

    /// X2, one shard per ISP.
    pub fn race(&self, hub: &Telemetry, opts: &race::RaceOptions) -> race::Race {
        let jobs: Vec<Job<'_, race::RaceRow>> = opts
            .isps
            .iter()
            .map(|&isp| Box::new(move |ctx: &mut crate::shard::ShardCtx| race::run_isp(&mut ctx.lab, isp, opts)) as _)
            .collect();
        race::Race { rows: self.merge(hub, self.run_pool("race", jobs)) }
    }

    /// Table 1, one shard per ISP.
    pub fn table1(&self, hub: &Telemetry, opts: &table1::Table1Options) -> table1::Table1 {
        let jobs: Vec<Job<'_, (table1::IspAccuracy, usize)>> = opts
            .isps
            .iter()
            .map(|&isp| {
                Box::new(move |ctx: &mut crate::shard::ShardCtx| {
                    let sites = table1::site_sample(&ctx.lab, opts.max_sites);
                    (table1::run_isp(&mut ctx.lab, isp, &sites), sites.len())
                }) as _
            })
            .collect();
        let rows = self.merge(hub, self.run_pool("table1", jobs));
        let sites_tested = rows.first().map(|(_, n)| *n).unwrap_or(0);
        table1::Table1 { rows: rows.into_iter().map(|(r, _)| r).collect(), sites_tested }
    }

    /// Figure 2 in two phases: per-ISP discovery (open resolvers +
    /// uncensored reference), then per-(ISP, resolver-chunk) surveys
    /// whose scans concatenate in submission order.
    pub fn fig2(&self, hub: &Telemetry, opts: &fig2::Fig2Options) -> fig2::Fig2 {
        let prep_jobs: Vec<Job<'_, fig2::IspPrep>> = opts
            .isps
            .iter()
            .map(|&isp| {
                Box::new(move |ctx: &mut crate::shard::ShardCtx| {
                    fig2::prepare_isp(&mut ctx.lab, isp, opts)
                }) as _
            })
            .collect();
        let prep = self.merge(hub, self.run_pool("fig2.prepare", prep_jobs));

        let mut chunk_jobs: Vec<Job<'_, Vec<ResolverScan>>> = Vec::new();
        let mut chunks_per_isp = Vec::new();
        for (&isp, (resolvers, reference)) in opts.isps.iter().zip(&prep) {
            let mut chunks = 0;
            for chunk in resolvers.chunks(RESOLVER_CHUNK) {
                chunks += 1;
                let max_sites = opts.max_sites;
                chunk_jobs.push(Box::new(move |ctx: &mut crate::shard::ShardCtx| {
                    let pbw = fig2::pbw_sample(&ctx.lab, max_sites);
                    survey_batch(&mut ctx.lab, isp, chunk, &pbw, reference)
                }) as _);
            }
            chunks_per_isp.push(chunks);
        }
        let mut scans = self.merge(hub, self.run_pool("fig2.survey", chunk_jobs)).into_iter();

        let mut rows = Vec::new();
        for ((&isp, (resolvers, _)), chunks) in
            opts.isps.iter().zip(prep.iter()).zip(chunks_per_isp)
        {
            let poisoned: Vec<ResolverScan> =
                scans.by_ref().take(chunks).flatten().collect();
            rows.push(fig2::assemble_row(isp, resolvers.clone(), poisoned));
        }
        fig2::Fig2 { rows }
    }

    /// X4, one shard per ISP.
    pub fn evasion(&self, hub: &Telemetry, opts: &evasion::EvasionOptions) -> evasion::Evasion {
        let jobs: Vec<Job<'_, (std::collections::BTreeMap<String, evasion::EvasionCell>, bool)>> =
            opts.isps
                .iter()
                .map(|&isp| {
                    Box::new(move |ctx: &mut crate::shard::ShardCtx| {
                        evasion::run_isp(&mut ctx.lab, isp, opts)
                    }) as _
                })
                .collect();
        let cells = self.merge(hub, self.run_pool("evasion", jobs));
        let mut matrix = std::collections::BTreeMap::new();
        let mut fully = std::collections::BTreeMap::new();
        for (&isp, (per_technique, full)) in opts.isps.iter().zip(cells) {
            matrix.insert(isp.name().to_string(), per_technique);
            fully.insert(isp.name().to_string(), full);
        }
        evasion::Evasion { matrix, fully_evaded: fully }
    }

    /// X3, one shard per ISP.
    pub fn triggers(&self, hub: &Telemetry, isps: &[IspId]) -> triggers::Triggers {
        let jobs: Vec<Job<'_, triggers::TriggerRow>> = isps
            .iter()
            .map(|&isp| Box::new(move |ctx: &mut crate::shard::ShardCtx| triggers::run_isp(&mut ctx.lab, isp)) as _)
            .collect();
        triggers::Triggers { rows: self.merge(hub, self.run_pool("triggers", jobs)) }
    }

    /// §6.1, one shard per ISP.
    pub fn anonymity(
        &self,
        hub: &Telemetry,
        isps: &[IspId],
        max_paths: usize,
    ) -> anonymity::Anonymity {
        let jobs: Vec<Job<'_, anonymity::AnonymityRow>> = isps
            .iter()
            .map(|&isp| {
                Box::new(move |ctx: &mut crate::shard::ShardCtx| {
                    anonymity::run_isp(&mut ctx.lab, isp, max_paths)
                }) as _
            })
            .collect();
        anonymity::Anonymity { rows: self.merge(hub, self.run_pool("anonymity", jobs)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(threads: usize) -> Driver {
        Driver::new(Scale::Tiny, threads, None)
    }

    #[test]
    fn race_rows_are_thread_count_invariant() {
        let opts = race::RaceOptions {
            isps: vec![IspId::Airtel, IspId::Idea],
            attempts: 3,
            sites_per_isp: 1,
        };
        let hub1 = Telemetry::new();
        let r1 = driver(1).race(&hub1, &opts);
        let hub4 = Telemetry::new();
        let r4 = driver(4).race(&hub4, &opts);
        assert_eq!(format!("{r1}"), format!("{r4}"));
        assert_eq!(hub1.metrics_snapshot_pretty(), hub4.metrics_snapshot_pretty());
    }

    #[test]
    fn profiled_pools_label_shards_and_record_walls() {
        let opts = race::RaceOptions {
            isps: vec![IspId::Airtel, IspId::Idea],
            attempts: 2,
            sites_per_isp: 1,
        };
        let prof_snapshot = |threads: usize| {
            let drv = driver(threads).with_prof(true);
            let hub = Telemetry::new();
            drv.race(&hub, &opts);
            let walls = drv.pool_walls();
            assert_eq!(walls.len(), 1);
            assert_eq!(walls[0].tag, "race");
            assert_eq!(walls[0].busy_secs.len(), 2);
            lucent_obs::prof::deterministic_json(&hub, 0).to_string_pretty()
        };
        let det1 = prof_snapshot(1);
        let det4 = prof_snapshot(4);
        assert_eq!(det1, det4, "deterministic plane must be thread-count invariant");
        assert!(det1.contains("race/shard-00"), "{det1}");
        assert!(det1.contains("race/shard-01"), "{det1}");
    }
}
