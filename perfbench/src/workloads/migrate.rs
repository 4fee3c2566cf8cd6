//! `idle-fleet` and `hot-vm`: MigrationTP fleets moved Xen → KVM over
//! the content-aware wire through `migrate_fleet`.
//!
//! Guest content derives from the seed: every VM holds the same shared
//! template block (cross-VM dedup fodder) at the bottom of its memory plus
//! a block of VM-specific words scattered above it; everything else is
//! zero, as on a freshly booted guest (the fig. 12 idle shape).

use std::collections::BTreeMap;
use std::time::Duration;

use hypertp::core::{Hypervisor, HypervisorKind, HypervisorRegistry, VmConfig};
use hypertp::machine::{Extent, Gfn, Machine, MachineSpec, PhysicalMemory};
use hypertp::migrate::{
    migrate_fleet, FleetPolicy, FleetReport, FleetVm, FrameKind, FrameRing, MigrationConfig,
    MigrationTp, TransferCache, WireMode, WireStats,
};
use hypertp::sim::hash::digest_pages_into;
use hypertp::sim::{SimClock, SimRng};
use hypertp::uisr::VcpuState;

use super::{err, ms, time_setup, vcpus_match, OpCtx, OpOut, SimOutcome, Workload};
use crate::trace::{Ledger, Tracer};

/// The shape of a migrated fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub vms: u32,
    /// Guest write rate while migrating, pages/second.
    pub dirty_rate: f64,
    /// QEMU-style auto-converge throttling of non-converging guests.
    pub auto_converge: bool,
}

/// Four idle guests: zero and duplicate pages dominate the wire.
pub const IDLE_FLEET: FleetShape = FleetShape {
    vms: 4,
    dirty_rate: 0.0,
    auto_converge: false,
};

/// One guest dirtying fast enough that pre-copy only converges under
/// throttling, and the dedup cache passes its cap.
pub const HOT_VM: FleetShape = FleetShape {
    vms: 1,
    dirty_rate: 150_000.0,
    auto_converge: true,
};

const MEM_GB: u64 = 1;
/// Shared template words at GFNs `0..TEMPLATE_WORDS` of every VM.
const TEMPLATE_WORDS: u64 = 1024;
/// VM-specific words scattered above the template.
const UNIQUE_WORDS: u64 = 512;

/// Source and destination of one fleet migration.
struct Fleet {
    src_m: Machine,
    dst_m: Machine,
    src: Box<dyn Hypervisor>,
    dst: Box<dyn Hypervisor>,
    vms: Vec<FleetVm>,
}

fn build(reg: &HypervisorRegistry, shape: FleetShape, seed: u64) -> Result<Fleet, String> {
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = reg.create(HypervisorKind::Xen, &mut src_m).map_err(err)?;
    let mut seeds = SimRng::new(seed);
    let mut template_rng = seeds.split();
    let template: Vec<u64> = (0..TEMPLATE_WORDS)
        .map(|_| template_rng.next_u64() | 1)
        .collect();
    let mut vms = Vec::new();
    for i in 0..shape.vms {
        let cfg = VmConfig::small(format!("vm{i}")).with_memory_gb(MEM_GB);
        let pages = cfg.pages();
        let id = src.create_vm(&mut src_m, &cfg).map_err(err)?;
        for (k, &word) in template.iter().enumerate() {
            src.write_guest(&mut src_m, id, Gfn(k as u64), word)
                .map_err(err)?;
        }
        let mut rng = seeds.split();
        for _ in 0..UNIQUE_WORDS {
            let gfn = TEMPLATE_WORDS + rng.gen_range(pages - TEMPLATE_WORDS);
            src.write_guest(&mut src_m, id, Gfn(gfn), rng.next_u64() | 1)
                .map_err(err)?;
        }
        vms.push(FleetVm::with_dirty_rate(id, shape.dirty_rate));
    }
    let dst = reg.create(HypervisorKind::Kvm, &mut dst_m).map_err(err)?;
    Ok(Fleet {
        src_m,
        dst_m,
        src,
        dst,
        vms,
    })
}

fn config(shape: FleetShape, wire_mode: WireMode) -> MigrationConfig {
    let mut cfg = MigrationConfig {
        dirty_rate_pages_per_sec: shape.dirty_rate,
        wire_mode,
        ..MigrationConfig::default()
    };
    cfg.control.auto_converge = shape.auto_converge;
    cfg
}

/// A guest's memory in GFN order, read straight from RAM through its map.
fn guest_words(ram: &PhysicalMemory, map: &[(Gfn, Extent)]) -> Result<Vec<u64>, String> {
    let mut runs = map.to_vec();
    runs.sort_by_key(|(g, _)| *g);
    let mut words = Vec::new();
    for (_, e) in runs {
        words.extend_from_slice(ram.content_slice(e.base, e.pages()).map_err(err)?);
    }
    Ok(words)
}

pub struct FleetWorkload {
    shape: FleetShape,
    seed: u64,
    reg: HypervisorRegistry,
    /// Source guests at pause, derived once from the first op.
    paused: Option<BTreeMap<String, PausedGuest>>,
}

impl FleetWorkload {
    pub fn new(shape: FleetShape, seed: u64) -> Self {
        FleetWorkload {
            shape,
            seed,
            reg: hypertp::default_registry(),
            paused: None,
        }
    }

    /// Rebuilds the source fleet and ticks each guest by the pages the
    /// report says it dirtied in each round: the domain ids and so the
    /// dirty streams match the op's, which yields each guest's state at
    /// pause without the engine.
    fn paused_guests(&self, report: &FleetReport) -> Result<BTreeMap<String, PausedGuest>, String> {
        let Fleet {
            mut src_m,
            mut src,
            vms,
            ..
        } = build(&self.reg, self.shape, self.seed)?;
        let mut paused = BTreeMap::new();
        for (vm, r) in vms.iter().zip(&report.reports) {
            for round in &r.rounds {
                if round.dirtied > 0 {
                    src.guest_tick(&mut src_m, vm.id, round.dirtied)
                        .map_err(err)?;
                }
            }
            src.notify_prepare_transplant(&mut src_m, vm.id)
                .map_err(err)?;
            src.pause_vm(vm.id).map_err(err)?;
            let uisr = src.save_uisr(&src_m, vm.id).map_err(err)?;
            let guest = PausedGuest {
                uisr_bytes: hypertp::uisr::encode(&uisr).len() as u64,
                vcpus: uisr.vcpus,
            };
            paused.insert(r.vm_name.clone(), guest);
        }
        Ok(paused)
    }

    fn migrate(
        &self,
        tracer: &Tracer,
        span: &'static str,
        fleet: &mut Fleet,
        tp: &MigrationTp,
    ) -> (Result<FleetReport, String>, Duration) {
        let Fleet {
            src_m,
            dst_m,
            src,
            dst,
            vms,
        } = fleet;
        let (r, d) = tracer.span(span, || {
            migrate_fleet(
                tp,
                src_m,
                src.as_mut(),
                vms,
                dst_m,
                dst.as_mut(),
                FleetPolicy::default(),
            )
        });
        (r.map_err(err), d)
    }
}

impl Workload for FleetWorkload {
    fn setup_only(&self) -> Result<Duration, String> {
        time_setup(|| build(&self.reg, self.shape, self.seed))
    }

    fn run_op(&mut self, ctx: &mut OpCtx<'_>) -> Result<OpOut, String> {
        let tracer = ctx.tracer;
        let (fleet, setup) = tracer.span("setup", || build(&self.reg, self.shape, self.seed));
        let mut fleet = fleet?;
        // Source maps are captured before the call: freeing frames leaves
        // their contents in place, so after the migration they still hold
        // each guest's memory as it was at pause.
        let mut src_maps = BTreeMap::new();
        for vm in &fleet.vms {
            let name = fleet.src.vm_config(vm.id).map_err(err)?.name.clone();
            src_maps.insert(name, fleet.src.guest_memory_map(vm.id).map_err(err)?);
        }
        let tp = MigrationTp::new()
            .with_config(config(self.shape, WireMode::ContentAware))
            .with_pool(ctx.pool);
        let (report, call) = self.migrate(tracer, "migrate_fleet", &mut fleet, &tp);
        let report = report?;
        if self.paused.is_none() {
            self.paused = Some(self.paused_guests(&report)?);
        }
        let paused = self.paused.as_ref().expect("derived above");
        tracer
            .span("check", || check(&mut fleet, &src_maps, paused, &report))
            .0?;
        let sim = outcome(&report);
        let fingerprint = format!("{report:?}");
        if let Some(ledger) = ctx.ledger.as_deref_mut() {
            tracer
                .span("replay", || {
                    self.replay(tracer, ctx.pool, &report, &tp, call, ledger)
                })
                .0?;
        }
        Ok(OpOut {
            setup,
            call,
            sim,
            fingerprint,
        })
    }
}

/// A source guest at pause: its encoded UISR size and vCPU state.
#[derive(Debug)]
struct PausedGuest {
    uisr_bytes: u64,
    vcpus: Vec<VcpuState>,
}

/// Every destination guest must hold exactly the source's memory at
/// pause and its architectural vCPU state, and the proxies must have
/// shipped the source's UISR encoding.
fn check(
    fleet: &mut Fleet,
    src_maps: &BTreeMap<String, Vec<(Gfn, Extent)>>,
    paused: &BTreeMap<String, PausedGuest>,
    report: &FleetReport,
) -> Result<(), String> {
    if report.reports.len() != src_maps.len() {
        return Err(format!(
            "{} reports for {} VMs",
            report.reports.len(),
            src_maps.len()
        ));
    }
    for r in &report.reports {
        let name = &r.vm_name;
        let (Some(src_map), Some(want)) = (src_maps.get(name), paused.get(name)) else {
            return Err(format!("{name}: not a source VM"));
        };
        let id = fleet
            .dst
            .find_vm(name)
            .ok_or_else(|| format!("{name}: missing on the destination"))?;
        let dst_map = fleet.dst.guest_memory_map(id).map_err(err)?;
        if guest_words(fleet.dst_m.ram(), &dst_map)? != guest_words(fleet.src_m.ram(), src_map)? {
            return Err(format!(
                "{name}: destination memory differs from the source at pause"
            ));
        }
        if r.uisr_bytes != want.uisr_bytes {
            return Err(format!(
                "{name}: {} UISR bytes shipped, the source encodes to {}",
                r.uisr_bytes, want.uisr_bytes
            ));
        }
        fleet.dst.pause_vm(id).map_err(err)?;
        let vcpus = fleet.dst.save_uisr(&fleet.dst_m, id).map_err(err)?.vcpus;
        if !vcpus_match(&vcpus, &want.vcpus) {
            return Err(format!(
                "{name}: restored vCPU state differs from the source at pause"
            ));
        }
    }
    Ok(())
}

fn outcome(report: &FleetReport) -> SimOutcome {
    let downtimes: Vec<f64> = report.reports.iter().map(|r| ms(r.downtime)).collect();
    let uisr: u64 = report.reports.iter().map(|r| r.uisr_bytes).sum();
    SimOutcome {
        downtime_ms_mean: Some(downtimes.iter().sum::<f64>() / downtimes.len().max(1) as f64),
        downtime_ms_max: Some(downtimes.iter().copied().fold(0.0, f64::max)),
        total_s: report.makespan.as_secs_f64(),
        wire_mb: Some((report.total_bytes() + uisr) as f64 / 1e6),
        exposure_vm_days: None,
        disruption_min: None,
    }
}

fn merged_wire(report: &FleetReport) -> WireStats {
    let mut wire = WireStats::default();
    for r in &report.reports {
        wire.merge(&r.wire);
    }
    wire
}

impl FleetWorkload {
    /// Per-layer metrics of one traced op: report-derived counts and
    /// simulated phases, the raw-wire reference, and a page-level replay
    /// of the op's rounds through the wire layer's public calls.
    fn replay(
        &self,
        tracer: &Tracer,
        pool: hypertp::sim::WorkerPool,
        report: &FleetReport,
        tp: &MigrationTp,
        call: Duration,
        ledger: &mut Ledger,
    ) -> Result<(), String> {
        let call_ms = call.as_secs_f64() * 1e3;
        ledger.record("migrate.fleet_ms", call_ms);
        let mut raw_fleet = build(&self.reg, self.shape, self.seed)?;
        let raw_tp = MigrationTp::new()
            .with_config(config(self.shape, WireMode::Raw))
            .with_pool(pool);
        let (raw, raw_call) = self.migrate(tracer, "migrate_fleet.raw", &mut raw_fleet, &raw_tp);
        raw?;
        let raw_ms = raw_call.as_secs_f64() * 1e3;
        ledger.record("migrate.raw_ref_ms", raw_ms);
        ledger.record("migrate.wire.overhead_x", call_ms / raw_ms);

        let wire = merged_wire(report);
        for (kind, frames, bytes) in [
            (
                FrameKind::Zero,
                "migrate.wire.frames.zero",
                "migrate.wire.bytes.zero",
            ),
            (
                FrameKind::Dup,
                "migrate.wire.frames.dup",
                "migrate.wire.bytes.dup",
            ),
            (
                FrameKind::Delta,
                "migrate.wire.frames.delta",
                "migrate.wire.bytes.delta",
            ),
            (
                FrameKind::Raw,
                "migrate.wire.frames.raw",
                "migrate.wire.bytes.raw",
            ),
        ] {
            ledger.record(frames, wire.count(kind) as f64);
            ledger.record(bytes, wire.bytes(kind) as f64);
        }
        ledger.record(
            "migrate.wire.cache_evictions",
            wire.cache_evictions() as f64,
        );
        ledger.record("migrate.wire.dedup_hit_rate", wire.dedup_hit_rate());

        let reports = &report.reports;
        let rounds: usize = reports.iter().map(|r| r.rounds.len()).sum();
        let stop_pages: u64 = reports.iter().map(|r| r.stop_pages).sum();
        let pages_sent: u64 = reports
            .iter()
            .map(|r| r.rounds.iter().map(|s| s.pages).sum::<u64>() + r.stop_pages)
            .sum();
        // Round 0 copies every guest page once.
        let guest_pages: u64 = reports
            .iter()
            .map(|r| r.rounds.first().map_or(0, |s| s.pages))
            .sum();
        ledger.record("migrate.engine.rounds", rounds as f64);
        ledger.record("migrate.engine.pages_sent", pages_sent as f64);
        ledger.record(
            "migrate.engine.resent_frac",
            pages_sent.saturating_sub(guest_pages) as f64 / pages_sent.max(1) as f64,
        );
        ledger.record("migrate.engine.stop_pages", stop_pages as f64);
        ledger.record(
            "migrate.engine.host_ms_per_round",
            call_ms / rounds.max(1) as f64,
        );
        ledger.record(
            "migrate.engine.scratch_grows",
            tp.scratch_stats().grows as f64,
        );

        let throttle = reports.iter().map(|r| r.final_throttle).fold(1.0, f64::min);
        ledger.record("migrate.control.final_throttle", throttle);
        ledger.record(
            "migrate.control.forced_stop",
            reports.iter().filter(|r| r.forced_stop).count() as f64,
        );
        ledger.record(
            "migrate.control.precopy_error_pct",
            report.mean_abs_precopy_error_pct(),
        );
        let n = reports.len().max(1) as f64;
        let precopy: f64 = (0..reports.len())
            .map(|i| report.actual_precopy(i).as_secs_f64())
            .sum();
        ledger.record("migrate.phase.precopy_s", precopy / n);
        // The kvmtool destination receives in parallel, so each VM's
        // downtime is its own stop-and-copy with no receive queueing.
        let stop_copy: f64 = reports.iter().map(|r| ms(r.downtime)).sum();
        ledger.record("migrate.phase.stop_copy_ms", stop_copy / n);

        self.replay_pages(tracer, report, ledger)
    }

    /// Replays the op's page rounds on a fresh copy of the source fleet.
    /// The copy has the same domain ids, so each guest's deterministic
    /// dirty stream, ticked by the `dirtied` counts of the report's rounds,
    /// yields the same round sets and words the engine moved; each round
    /// is read, digested, encoded into a frame ring and applied, in the
    /// engine's order, on one cache shared across the fleet.
    fn replay_pages(
        &self,
        tracer: &Tracer,
        report: &FleetReport,
        ledger: &mut Ledger,
    ) -> Result<(), String> {
        let mut fleet = build(&self.reg, self.shape, self.seed)?;
        let cache = TransferCache::new();
        let mut ring = FrameRing::new();
        let mut digests = Vec::new();
        let (mut read, mut digest, mut encode, mut apply) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        let mut pages = 0u64;
        let mut wire_bytes = 0u64;
        for &i in &report.admission {
            let r = &report.reports[i];
            let id = fleet.vms[i].id;
            let Fleet { src_m, src, .. } = &mut fleet;
            src.enable_dirty_log(id).map_err(err)?;
            let map = src.guest_memory_map(id).map_err(err)?;
            let mut gfns: Vec<Gfn> = map
                .iter()
                .flat_map(|(g, e)| (g.0..g.0 + e.pages()).map(Gfn))
                .collect();
            let mut dst = vec![0u64; gfns.len()];
            let expected = r.rounds.iter().map(|s| (s.pages, Some(s.dirtied)));
            for (round_pages, dirtied) in expected.chain([(r.stop_pages, None)]) {
                if gfns.len() as u64 != round_pages {
                    return Err(format!(
                        "{}: replayed round holds {} pages, the report {round_pages}",
                        r.vm_name,
                        gfns.len()
                    ));
                }
                let (words, d) = tracer.span("xen.read_guest_many", || {
                    src.read_guest_many(src_m, id, &gfns)
                });
                let words = words.map_err(err)?;
                read += d;
                digest += tracer
                    .span("sim.hash.digest_pages_into", || {
                        digest_pages_into(&words, &mut digests)
                    })
                    .1;
                cache.begin_round();
                ring.restart();
                ring.begin();
                let (bytes, d) = tracer.span("migrate.wire.encode_batch_into", || {
                    cache.encode_batch_into(id.0, &gfns, &words, &digests, &mut ring)
                });
                wire_bytes += bytes;
                encode += d;
                ring.commit();
                let (applied, d) = tracer.span("migrate.wire.apply_view", || {
                    for view in ring.iter() {
                        let slot = dst.get_mut(usize::try_from(view.gfn).ok()?)?;
                        *slot = cache.apply_view(&view, *slot)?;
                    }
                    Some(())
                });
                applied.ok_or_else(|| format!("{}: replayed frame failed to apply", r.vm_name))?;
                apply += d;
                cache.commit_round();
                pages += round_pages;
                if let Some(dirtied) = dirtied {
                    if dirtied > 0 {
                        src.guest_tick(src_m, id, dirtied).map_err(err)?;
                    }
                    gfns = src.collect_dirty(id).map_err(err)?;
                }
            }
            if dst != guest_words(src_m.ram(), &map)? {
                return Err(format!(
                    "{}: replayed destination differs from the source",
                    r.vm_name
                ));
            }
        }
        if wire_bytes != report.total_bytes() {
            return Err(format!(
                "replay encoded {wire_bytes} wire bytes, the op {}",
                report.total_bytes()
            ));
        }
        ledger.per_unit_ns("machine.guest_read_ns_per_page", read, pages);
        ledger.per_unit_ns("sim.hash.digest_ns_per_page", digest, pages);
        ledger.per_unit_ns("migrate.wire.encode_ns_per_page", encode, pages);
        ledger.per_unit_ns("migrate.wire.apply_ns_per_page", apply, pages);
        Ok(())
    }
}
