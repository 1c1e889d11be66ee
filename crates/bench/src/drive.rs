//! The sharded experiment driver: turns each experiment's per-ISP (or
//! per-resolver-chunk) entry points into shard jobs, runs them on a
//! [`Pool`], and merges rows **and telemetry** back in submission
//! order. This is the only way a multi-ISP experiment runs: `repro`,
//! the integration tests and the examples all go through it, so what
//! CI proves byte-identical is exactly what users run.

use lucent_core::experiments::{anonymity, evasion, fig2, race, table1, triggers};
use lucent_core::lab::Lab;
use lucent_core::probe::dns_scan::{survey_batch, ResolverScan};
use lucent_obs::Telemetry;
use lucent_topology::{IndiaConfig, IspId};

use crate::shard::{Job, Pool, ShardCtx, ShardOut};
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
        }
    }

    /// Enable the profiler on every shard registry.
    pub fn with_prof(mut self, on: bool) -> Driver {
        self.prof = on;
        self
    }

    /// Simulator events processed by all shards so far — the hub
    /// network never sees these, so a run's event total needs them.
    pub fn shard_events(&self) -> u64 {
        self.shard_events.get()
    }

    /// Run `jobs` on a fresh pool under `tag`.
    fn run_pool<T: Send>(&self, tag: &str, jobs: Vec<Job<'_, T>>) -> Vec<ShardOut<T>> {
        Pool::new(self.scale.config(), self.threads, self.trace.clone())
            .with_prof(self.prof)
            .run_tagged(tag, jobs)
    }

    /// Absorb shard telemetry into `hub` in submission order and return
    /// the values in the same order.
    fn merge<T>(&self, hub: &Telemetry, outs: Vec<ShardOut<T>>) -> Vec<T> {
        outs.into_iter().map(|out| self.absorb(hub, out)).collect()
    }

    /// Absorb one shard's telemetry and event count; return its value.
    fn absorb<T>(&self, hub: &Telemetry, out: ShardOut<T>) -> T {
        self.shard_events.set(self.shard_events.get().saturating_add(out.events));
        hub.absorb(out.dump);
        out.value
    }

    /// Run `job` on a world of its own, built from `config` rather than
    /// this `Driver`'s scale, set up like a shard (trace filter, spans,
    /// profiler; profiled as `tag/shard-00`), and merge its telemetry
    /// and event count into `hub` before returning its value. For
    /// experiments that vary the world itself, such as an ablation.
    pub(crate) fn on_world<T>(
        &self,
        hub: &Telemetry,
        tag: &str,
        config: IndiaConfig,
        job: impl FnOnce(&mut Lab) -> T + Send,
    ) -> T {
        let pool = Pool::new(config, 1, self.trace.clone()).with_prof(self.prof);
        let job: Job<'_, T> = Box::new(move |ctx: &mut ShardCtx| job(&mut ctx.lab));
        self.absorb(hub, pool.run_one(&mut None, true, tag, 0, job))
    }

    /// Run `job` once per ISP in `isps`, one shard each, under `tag`;
    /// the rows come back in `isps` order.
    fn per_isp<T: Send>(
        &self,
        hub: &Telemetry,
        tag: &str,
        isps: &[IspId],
        job: impl Fn(&mut Lab, IspId) -> T + Sync,
    ) -> Vec<T> {
        let job = &job;
        let jobs: Vec<Job<'_, T>> = isps
            .iter()
            .map(|&isp| Box::new(move |ctx: &mut ShardCtx| job(&mut ctx.lab, isp)) as _)
            .collect();
        self.merge(hub, self.run_pool(tag, jobs))
    }

    /// X2, one shard per ISP.
    pub fn race(&self, hub: &Telemetry, opts: &race::RaceOptions) -> race::Race {
        let rows = self.per_isp(hub, "race", &opts.isps, |lab, isp| race::run_isp(lab, isp, opts));
        race::Race { rows }
    }

    /// Table 1, one shard per ISP.
    pub fn table1(&self, hub: &Telemetry, opts: &table1::Table1Options) -> table1::Table1 {
        let rows = self.per_isp(hub, "table1", &opts.isps, |lab, isp| {
            let sites = table1::site_sample(lab, opts.max_sites);
            (table1::run_isp(lab, isp, &sites), sites.len())
        });
        let sites_tested = rows.first().map(|(_, n)| *n).unwrap_or(0);
        table1::Table1 { rows: rows.into_iter().map(|(r, _)| r).collect(), sites_tested }
    }

    /// Figure 2 in two phases: per-ISP discovery (open resolvers +
    /// uncensored reference), then per-(ISP, resolver-chunk) surveys
    /// whose scans concatenate in submission order.
    pub fn fig2(&self, hub: &Telemetry, opts: &fig2::Fig2Options) -> fig2::Fig2 {
        let prep = self.per_isp(hub, "fig2.prepare", &opts.isps, |lab, isp| {
            fig2::prepare_isp(lab, isp, opts)
        });

        let mut chunk_jobs: Vec<Job<'_, Vec<ResolverScan>>> = Vec::new();
        let mut chunks_per_isp = Vec::new();
        for (&isp, (resolvers, reference)) in opts.isps.iter().zip(&prep) {
            let mut chunks = 0;
            for chunk in resolvers.chunks(RESOLVER_CHUNK) {
                chunks += 1;
                let max_sites = opts.max_sites;
                chunk_jobs.push(Box::new(move |ctx: &mut ShardCtx| {
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
        let cells =
            self.per_isp(hub, "evasion", &opts.isps, |lab, isp| evasion::run_isp(lab, isp, opts));
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
        triggers::Triggers { rows: self.per_isp(hub, "triggers", isps, triggers::run_isp) }
    }

    /// §6.1, one shard per ISP.
    pub fn anonymity(
        &self,
        hub: &Telemetry,
        isps: &[IspId],
        max_paths: usize,
    ) -> anonymity::Anonymity {
        let rows =
            self.per_isp(hub, "anonymity", isps, |lab, isp| anonymity::run_isp(lab, isp, max_paths));
        anonymity::Anonymity { rows }
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
    fn profiled_pools_label_shards() {
        let opts = race::RaceOptions {
            isps: vec![IspId::Airtel, IspId::Idea],
            attempts: 2,
            sites_per_isp: 1,
        };
        let prof_snapshot = |threads: usize| {
            let hub = Telemetry::new();
            driver(threads).with_prof(true).race(&hub, &opts);
            lucent_obs::prof::deterministic_json(&hub, 0).to_string_pretty()
        };
        let det1 = prof_snapshot(1);
        let det4 = prof_snapshot(4);
        assert_eq!(det1, det4, "deterministic plane must be thread-count invariant");
        assert!(det1.contains("race/shard-00"), "{det1}");
        assert!(det1.contains("race/shard-01"), "{det1}");
    }
}
