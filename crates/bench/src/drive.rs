//! The run: one [`Driver`] builds a pristine template world, runs each
//! serial step on a clone of it, turns each experiment's per-ISP (or
//! per-resolver-chunk) entry points into shard jobs on a [`Pool`], and
//! merges rows **and telemetry** into the run in submission order. Every
//! step gets a world of its own, so what a step publishes does not
//! depend on the steps run before it. This is the only way an
//! experiment runs: `repro`, the integration tests and the examples all
//! go through it, so what the tests prove byte-identical is exactly
//! what users run.

use lucent_core::experiments::{anonymity, evasion, fig2, race, table1, triggers};
use lucent_core::lab::Lab;
use lucent_core::probe::dns_scan::{survey_batch, ResolverScan};
use lucent_netsim::{SimDuration, SimTime};
use lucent_obs::{FilterError, Telemetry};
use lucent_topology::{India, IndiaConfig, IspId};

use crate::shard::{instrument, Job, Pool, ShardCtx, ShardOut};
use crate::Scale;

/// Resolver-chunk size for the Figure 2 survey phase. Fixed (never a
/// function of the thread count) so the shard decomposition — and with
/// it every derived artifact — is identical at any `--threads N`.
const RESOLVER_CHUNK: usize = 16;

/// One experiment run: a pristine world at a scale, the pool its
/// worlds run on, and the registry every world's telemetry merges
/// into. It accounts for every world it ran.
pub struct Driver {
    scale: Scale,
    /// Runs every world of the run: the run's thread budget, and the
    /// trace spec and profiler each world is set up with.
    pool: Pool,
    /// Never run: each serial step runs on a clone of it.
    template: India,
    /// The run's telemetry: every world's metrics, events and spans,
    /// absorbed in the order the worlds ran.
    obs: Telemetry,
    /// Simulator events processed by every world of the run.
    events: u64,
    /// Final clocks of every world of the run, summed.
    time: SimDuration,
}

impl Driver {
    /// A run at `scale` over `threads` OS threads. Builds the template
    /// world and installs on the run's registry the `trace` filter spec
    /// (with spans) and, when `prof`, the profiler, exactly as on every
    /// world. An invalid spec is an error.
    pub fn new(
        scale: Scale,
        threads: usize,
        trace: Option<&str>,
        prof: bool,
    ) -> Result<Driver, FilterError> {
        let template = India::build(scale.config());
        // A copy of the template's empty registry keeps its track names.
        let obs = template.net.telemetry().fork();
        instrument(&obs, trace, prof)?;
        let pool = Pool::new(scale.config(), threads, trace.map(str::to_string)).with_prof(prof);
        Ok(Driver { scale, pool, template, obs, events: 0, time: SimDuration::ZERO })
    }

    /// The run's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The world every serial step starts from, as built; no step runs
    /// on it.
    pub fn world(&self) -> &India {
        &self.template
    }

    /// The run's telemetry, holding every world's metrics, events and
    /// spans absorbed so far.
    pub fn telemetry(&self) -> Telemetry {
        self.obs.clone()
    }

    /// The run's totals so far over all of its worlds: simulator events,
    /// and virtual time as the sum of each world's final clock.
    pub fn totals(&self) -> (u64, SimTime) {
        (self.events, SimTime::ZERO + self.time)
    }

    /// Run `jobs` on the pool under `tag`, each returning its world's
    /// final clock beside its value; absorb each shard in submission
    /// order and return the values in the same order.
    fn run_pool<T: Send>(&mut self, tag: &str, jobs: Vec<Job<'_, T>>) -> Vec<T> {
        let jobs = jobs.into_iter().map(|job| {
            Box::new(move |ctx: &mut ShardCtx| (job(ctx), ctx.lab.now())) as Job<'_, _>
        });
        let outs = self.pool.run_tagged(tag, jobs.collect());
        outs.into_iter().map(|out| self.absorb(out)).collect()
    }

    /// Absorb one world's telemetry, event count and final clock into
    /// the run; return its value.
    fn absorb<T>(&mut self, out: ShardOut<(T, SimTime)>) -> T {
        let (value, now) = out.value;
        self.events = self.events.saturating_add(out.events);
        self.time = self.time + now.since(SimTime::ZERO);
        self.obs.absorb(out.dump);
        value
    }

    /// Run `job` on `world`, set up and profiled like a shard (as
    /// `tag/shard-00`), and absorb it into the run before returning its
    /// value.
    fn run_on<T>(&mut self, tag: &str, world: India, job: impl FnOnce(&mut Lab) -> T) -> T {
        let out = self.pool.run_one(world, tag, 0, |ctx: &mut ShardCtx| {
            (job(&mut ctx.lab), ctx.lab.now())
        });
        self.absorb(out)
    }

    /// Run `job` on a world of its own, a clone of the template (so
    /// equal to a fresh build at the run's scale).
    pub(crate) fn serial<T>(&mut self, tag: &str, job: impl FnOnce(&mut Lab) -> T) -> T {
        let world = self.template.clone();
        self.run_on(tag, world, job)
    }

    /// Run `job` on a world of its own, built from `config` rather than
    /// this run's scale. For experiments that vary the world itself,
    /// such as an ablation.
    pub(crate) fn on_world<T>(
        &mut self,
        tag: &str,
        config: IndiaConfig,
        job: impl FnOnce(&mut Lab) -> T,
    ) -> T {
        self.run_on(tag, India::build(config), job)
    }

    /// Run `job` once per ISP in `isps`, one shard each, under `tag`;
    /// the rows come back in `isps` order.
    fn per_isp<T: Send>(
        &mut self,
        tag: &str,
        isps: &[IspId],
        job: impl Fn(&mut Lab, IspId) -> T + Sync,
    ) -> Vec<T> {
        let job = &job;
        let jobs: Vec<Job<'_, T>> = isps
            .iter()
            .map(|&isp| Box::new(move |ctx: &mut ShardCtx| job(&mut ctx.lab, isp)) as _)
            .collect();
        self.run_pool(tag, jobs)
    }

    /// X2, one shard per ISP.
    pub fn race(&mut self, opts: &race::RaceOptions) -> race::Race {
        let rows = self.per_isp("race", &opts.isps, |lab, isp| race::run_isp(lab, isp, opts));
        race::Race { rows }
    }

    /// Table 1, one shard per ISP.
    pub fn table1(&mut self, opts: &table1::Table1Options) -> table1::Table1 {
        let rows = self.per_isp("table1", &opts.isps, |lab, isp| {
            let sites = table1::site_sample(lab, opts.max_sites);
            (table1::run_isp(lab, isp, &sites), sites.len())
        });
        let sites_tested = rows.first().map(|(_, n)| *n).unwrap_or(0);
        table1::Table1 { rows: rows.into_iter().map(|(r, _)| r).collect(), sites_tested }
    }

    /// Figure 2 in two phases: per-ISP discovery (open resolvers +
    /// uncensored reference), then per-(ISP, resolver-chunk) surveys
    /// whose scans concatenate in submission order.
    pub fn fig2(&mut self, opts: &fig2::Fig2Options) -> fig2::Fig2 {
        let prep =
            self.per_isp("fig2.prepare", &opts.isps, |lab, isp| fig2::prepare_isp(lab, isp, opts));
        let mut chunk_jobs: Vec<Job<'_, Vec<ResolverScan>>> = Vec::new();
        for (&isp, (resolvers, reference)) in opts.isps.iter().zip(&prep) {
            for chunk in resolvers.chunks(RESOLVER_CHUNK) {
                chunk_jobs.push(Box::new(move |ctx: &mut ShardCtx| {
                    let pbw = fig2::pbw_sample(&ctx.lab, opts.max_sites);
                    survey_batch(&mut ctx.lab, isp, chunk, &pbw, reference)
                }) as _);
            }
        }
        let mut scans = self.run_pool("fig2.survey", chunk_jobs).into_iter();
        let rows = opts.isps.iter().zip(&prep).map(|(&isp, (resolvers, _))| {
            let chunks = resolvers.len().div_ceil(RESOLVER_CHUNK);
            let poisoned = scans.by_ref().take(chunks).flatten().collect();
            fig2::assemble_row(isp, resolvers.clone(), poisoned)
        });
        fig2::Fig2 { rows: rows.collect() }
    }

    /// X4, one shard per ISP.
    pub fn evasion(&mut self, opts: &evasion::EvasionOptions) -> evasion::Evasion {
        let cells =
            self.per_isp("evasion", &opts.isps, |lab, isp| evasion::run_isp(lab, isp, opts));
        let rows = opts.isps.iter().zip(cells).map(|(isp, (per_technique, full))| {
            let name = isp.name().to_string();
            ((name.clone(), per_technique), (name, full))
        });
        let (matrix, fully_evaded) = rows.unzip();
        evasion::Evasion { matrix, fully_evaded }
    }

    /// X3, one shard per ISP.
    pub fn triggers(&mut self, isps: &[IspId]) -> triggers::Triggers {
        triggers::Triggers { rows: self.per_isp("triggers", isps, triggers::run_isp) }
    }

    /// §6.1, one shard per ISP.
    pub fn anonymity(&mut self, isps: &[IspId], max_paths: usize) -> anonymity::Anonymity {
        let rows =
            self.per_isp("anonymity", isps, |lab, isp| anonymity::run_isp(lab, isp, max_paths));
        anonymity::Anonymity { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_netsim::NodeId;
    use lucent_support::Json;

    fn driver(threads: usize, prof: bool) -> Driver {
        Driver::new(Scale::Tiny, threads, None, prof).expect("no trace spec to reject")
    }

    #[test]
    fn the_chrome_trace_names_track_0_after_node_0() {
        let drv = Driver::new(Scale::Tiny, 1, Some("wiretap=debug"), false).expect("valid spec");
        let trace = Json::parse(&drv.telemetry().chrome_trace()).expect("the trace is JSON");
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap_or_default();
        let track0 = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .find(|e| e.get("tid").and_then(Json::as_i64) == Some(0))
            .and_then(|e| e.get("args")?.get("name")?.as_str());
        assert_eq!(track0, Some(drv.world().net.label_of(NodeId(0))));
    }

    #[test]
    fn race_rows_are_thread_count_invariant() {
        let opts = race::RaceOptions {
            isps: vec![IspId::Airtel, IspId::Idea],
            attempts: 3,
            sites_per_isp: 1,
        };
        let mut d1 = driver(1, false);
        let r1 = d1.race(&opts);
        let mut d4 = driver(4, false);
        let r4 = d4.race(&opts);
        assert_eq!(format!("{r1}"), format!("{r4}"));
        let (m1, m4) = (d1.telemetry(), d4.telemetry());
        assert_eq!(m1.metrics_snapshot_pretty(), m4.metrics_snapshot_pretty());
    }

    #[test]
    fn profiled_pools_label_shards() {
        let opts = race::RaceOptions {
            isps: vec![IspId::Airtel, IspId::Idea],
            attempts: 2,
            sites_per_isp: 1,
        };
        let prof_snapshot = |threads: usize| {
            let mut drv = driver(threads, true);
            drv.race(&opts);
            lucent_obs::prof::deterministic_json(&drv.telemetry()).to_string_pretty()
        };
        let det1 = prof_snapshot(1);
        let det4 = prof_snapshot(4);
        assert_eq!(det1, det4, "deterministic plane must be thread-count invariant");
        assert!(det1.contains("race/shard-00"), "{det1}");
        assert!(det1.contains("race/shard-01"), "{det1}");
    }
}
