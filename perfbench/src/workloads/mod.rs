//! The four workloads. Each builds its inputs from the seed, runs one op
//! (one call of its top-level public entry point), checks the op's output,
//! and on traced ops replays the op's inputs through each layer's public
//! calls to fill the per-layer ledger.

mod feed;
mod inplace;
mod migrate;

use std::time::Duration;

use hypertp::sim::WorkerPool;
use hypertp::uisr::lapic_page::summarize;
use hypertp::uisr::VcpuState;

use crate::trace::{Ledger, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["idle-fleet", "hot-vm", "inplace-m1", "feed-year"];

/// Builds the named workload over `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "idle-fleet" => Box::new(migrate::FleetWorkload::new(migrate::IDLE_FLEET, seed)),
        "hot-vm" => Box::new(migrate::FleetWorkload::new(migrate::HOT_VM, seed)),
        "inplace-m1" => Box::new(inplace::InPlaceWorkload::new(seed)),
        "feed-year" => Box::new(feed::FeedWorkload::new(seed)),
        _ => return None,
    })
}

/// What one op needs from the harness.
pub struct OpCtx<'a> {
    /// The pool every layer call of this op runs on.
    pub pool: WorkerPool,
    pub tracer: &'a Tracer,
    /// Present on traced ops: the layer replays record into it.
    pub ledger: Option<&'a mut Ledger>,
}

/// Simulated outcome of one op; `None` where a metric does not apply to
/// the workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOutcome {
    pub downtime_ms_mean: Option<f64>,
    pub downtime_ms_max: Option<f64>,
    pub total_s: f64,
    pub wire_mb: Option<f64>,
    pub exposure_vm_days: Option<f64>,
    pub disruption_min: Option<f64>,
}

/// One successful, checked op.
#[derive(Debug, Clone)]
pub struct OpOut {
    /// Host time to build the op's machines, guests, views and feed.
    pub setup: Duration,
    /// Host time of the top-level call.
    pub call: Duration,
    pub sim: SimOutcome,
    /// Canonical rendering of every simulated value and report-derived
    /// count of the op: must be identical across ops, runs and pool widths.
    pub fingerprint: String,
}

pub trait Workload {
    /// Runs one op. `Err` means the op erred or failed its output check.
    fn run_op(&mut self, ctx: &mut OpCtx<'_>) -> Result<OpOut, String>;

    /// Builds one op's inputs and drops them, returning the host time the
    /// build took: extra set-up samples for runs with few ops.
    fn setup_only(&self) -> Result<Duration, String>;
}

/// Times `build`, dropping what it built outside the timed region.
fn time_setup<T, E>(build: impl FnOnce() -> Result<T, E>) -> Result<Duration, E> {
    let t = std::time::Instant::now();
    let built = build()?;
    let elapsed = t.elapsed();
    drop(built);
    Ok(elapsed)
}

/// Architectural vCPU state that must survive a transplant unchanged:
/// registers, FPU/XSAVE, MTRRs and the LAPIC page's contents. MSR lists
/// and LAPIC bookkeeping are re-derived by the target hypervisor.
fn vcpus_match(restored: &[VcpuState], paused: &[VcpuState]) -> bool {
    restored.len() == paused.len()
        && restored.iter().zip(paused).all(|(a, b)| {
            a.id == b.id
                && a.regs == b.regs
                && a.sregs == b.sregs
                && a.fpu == b.fpu
                && a.xsave == b.xsave
                && a.mtrr == b.mtrr
                && summarize(&a.lapic_regs, 0) == summarize(&b.lapic_regs, 0)
        })
}

fn ms(d: hypertp::sim::SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
