//! `feed-year`: one campaign over a 100k-host synthetic cloud, then a
//! seeded year of disclosures replayed through the surface-aware exposure
//! planner. Only the analytic layers work here; no page is touched.

use hypertp::cluster::{
    execute_sharded_with, plan_upgrade, replay_feed, Cluster, ExecConfig, ExposureConfig,
    ExposurePlanner, SyntheticCluster,
};
use hypertp::sim::{FaultPlan, SimDuration};
use hypertp::vulndb::dataset::dataset;
use hypertp::vulndb::{FeedEvent, SurfaceWeights, VulnFeed};

use std::time::Duration;

use super::{err, time_setup, OpCtx, OpOut, SimOutcome, Workload};

const HOSTS: usize = 100_000;
/// InPlaceTP-compatible share of the VMs (10 per host).
const COMPAT_PCT: u32 = 70;
/// Hosts upgraded per campaign group.
const GROUP: usize = 25;
/// Fixed shard count, so the pool width is the only thing varying
/// between the reference op and the timed ops.
const SHARDS: usize = 8;
const HORIZON_DAYS: u64 = 365;

struct Inputs {
    view: SyntheticCluster,
    events: Vec<FeedEvent>,
    cfg: ExposureConfig,
}

fn build(seed: u64) -> Inputs {
    let view = Cluster::synthetic(HOSTS, seed).with_compat_percent(COMPAT_PCT);
    let events = VulnFeed::new(seed).replay(SimDuration::from_secs(HORIZON_DAYS * 86_400));
    let cfg = ExposureConfig {
        weights: SurfaceWeights::calibrated(&dataset()),
        surface_aware: true,
        ..ExposureConfig::default()
    };
    Inputs { view, events, cfg }
}

pub struct FeedWorkload {
    seed: u64,
    /// `ExecReport` and `FeedReport` renders of the first op.
    first: Option<(String, String)>,
}

impl FeedWorkload {
    pub fn new(seed: u64) -> Self {
        FeedWorkload { seed, first: None }
    }
}

impl Workload for FeedWorkload {
    fn setup_only(&self) -> Result<Duration, String> {
        time_setup(|| Ok(build(self.seed)))
    }

    fn run_op(&mut self, ctx: &mut OpCtx<'_>) -> Result<OpOut, String> {
        let tracer = ctx.tracer;
        let pool = ctx.pool;
        let (inputs, setup) = tracer.span("setup", || build(self.seed));
        let Inputs { view, events, cfg } = &inputs;
        let (result, call) = tracer.span("campaign", || -> Result<_, String> {
            let (plan, plan_d) = tracer.span("cluster.plan_upgrade", || plan_upgrade(view, GROUP));
            let plan = plan.map_err(err)?;
            let (exec, exec_d) = tracer.span("cluster.execute_sharded_with", || {
                execute_sharded_with(
                    view,
                    &plan,
                    &ExecConfig::default(),
                    &FaultPlan::disarmed(),
                    SHARDS,
                    &pool,
                )
            });
            let (feed, _) = tracer.span("cluster.replay_feed", || {
                replay_feed(view, events, cfg, SHARDS, &pool)
            });
            Ok((exec, feed, plan_d, exec_d))
        });
        let (exec, feed, plan_d, exec_d) = result?;
        if feed.events != events.len() {
            return Err(format!(
                "replayed {} of {} disclosures",
                feed.events,
                events.len()
            ));
        }
        let renders = (exec.render(), feed.render());
        let first = self.first.get_or_insert_with(|| renders.clone());
        if *first != renders {
            return Err("campaign or feed report differs from the first op's".into());
        }
        let sim = SimOutcome {
            downtime_ms_mean: None,
            downtime_ms_max: None,
            total_s: exec.total.as_secs_f64(),
            wire_mb: Some(exec.wire_bytes_sent as f64 / 1e6),
            exposure_vm_days: Some(feed.exposure_vm_days),
            disruption_min: Some(feed.disruption.as_secs_f64() / 60.0),
        };
        let fingerprint = format!("{}\n{}", renders.0, renders.1);
        if let Some(ledger) = ctx.ledger.as_deref_mut() {
            ledger.record("cluster.planner.plan_ms", plan_d.as_secs_f64() * 1e3);
            ledger.record("cluster.exec.execute_ms", exec_d.as_secs_f64() * 1e3);
            ledger.record("cluster.exec.migrations", exec.migrations as f64);
            ledger.record(
                "cluster.exec.inplace_upgrades",
                exec.inplace_upgrades as f64,
            );
            ledger.record(
                "cluster.exposure.remediated_events",
                feed.remediated_events as f64,
            );
            ledger.record(
                "cluster.exposure.escalated_events",
                feed.escalated_events as f64,
            );
            ledger.record("cluster.exposure.deferred_vms", feed.deferred_vms as f64);
            ledger.record("vulndb.feed.events", events.len() as f64);
            // The planner split of `replay_feed`: the per-host cost table,
            // then the incremental per-event re-plan.
            let (planner, d) = tracer.span("cluster.ExposurePlanner::with_pool", || {
                ExposurePlanner::with_pool(view, *cfg, SHARDS, &pool)
            });
            ledger.record("cluster.exposure.cost_table_ms", d.as_secs_f64() * 1e3);
            let (replayed, d) =
                tracer.span("cluster.ExposurePlanner::replay", || planner.replay(events));
            if replayed.render() != renders.1 {
                return Err("planner replay differs from replay_feed".into());
            }
            ledger.record(
                "cluster.exposure.replan_us_per_event",
                d.as_secs_f64() * 1e6 / events.len().max(1) as f64,
            );
        }
        Ok(OpOut {
            setup,
            call,
            sim,
            fingerprint,
        })
    }
}
