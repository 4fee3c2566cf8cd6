//! `inplace-m1`: M1's full 12 × 1 GiB Xen fleet transplanted in place to
//! KVM with incremental pre-pause translation, the guests dirtying pages
//! while the warm snapshot refreshes.

use std::collections::BTreeMap;
use std::time::Duration;

use hypertp::core::uisr_store;
use hypertp::core::{
    Hypervisor, HypervisorKind, HypervisorRegistry, InPlaceReport, InPlaceTransplant,
    IncrementalConfig, Optimizations, VmConfig,
};
use hypertp::machine::{Extent, Gfn, Machine, MachineSpec};
use hypertp::pram::{PramBuilder, PramImage};
use hypertp::sim::SimRng;
use hypertp::uisr::VcpuState;

use super::{err, ms, time_setup, vcpus_match, OpCtx, OpOut, SimOutcome, Workload};
use crate::trace::{Ledger, Tracer};

/// M1's density at 1 GiB per VM (§5.2.1).
const VMS: u64 = 12;
const MEM_GB: u64 = 1;
/// Seeded non-zero words per guest.
const SEED_WORDS: u64 = 4096;
/// Guest redirty rate during the warm refresh rounds, pages/second.
const DIRTY_RATE: f64 = 150_000.0;
/// Every `PROBE_STRIDE`-th seeded word is probed after the transplant.
const PROBE_STRIDE: u64 = 64;
/// Workload-dirtied pages probed per guest.
const DIRTY_PROBES: usize = 64;

/// A freshly seeded source fleet plus, per VM, the GFNs of the probed
/// seeded words.
struct Fleet {
    m: Machine,
    src: Box<dyn Hypervisor>,
    probes: BTreeMap<String, Vec<Gfn>>,
}

fn build(reg: &HypervisorRegistry, seed: u64) -> Result<Fleet, String> {
    let mut m = Machine::new(MachineSpec::m1());
    let mut src = reg.create(HypervisorKind::Xen, &mut m).map_err(err)?;
    let mut rng = SimRng::new(seed);
    let mut probes = BTreeMap::new();
    for i in 0..VMS {
        let vcpus = 1 + (rng.next_u64() & 1) as u32;
        let cfg = VmConfig::small(format!("vm{i}"))
            .with_memory_gb(MEM_GB)
            .with_vcpus(vcpus);
        let pages = cfg.pages();
        let id = src.create_vm(&mut m, &cfg).map_err(err)?;
        let mut probe = Vec::new();
        for k in 0..SEED_WORDS {
            let gfn = Gfn(rng.gen_range(pages));
            src.write_guest(&mut m, id, gfn, rng.next_u64() | 1)
                .map_err(err)?;
            if k % PROBE_STRIDE == 0 {
                probe.push(gfn);
            }
        }
        probes.insert(cfg.name, probe);
    }
    Ok(Fleet { m, src, probes })
}

/// The state each guest must come back with: probed words and vCPUs.
#[derive(Debug)]
struct GuestState {
    words: Vec<(Gfn, u64)>,
    vcpus: Vec<VcpuState>,
}

pub struct InPlaceWorkload {
    seed: u64,
    reg: HypervisorRegistry,
    /// Pre-transplant guest states, derived once from the first op.
    expected: Option<BTreeMap<String, GuestState>>,
}

impl InPlaceWorkload {
    pub fn new(seed: u64) -> Self {
        InPlaceWorkload {
            seed,
            reg: hypertp::default_registry(),
            expected: None,
        }
    }

    fn engine(&self) -> InPlaceTransplant<'_> {
        InPlaceTransplant::new(&self.reg)
            .with_optimizations(Optimizations {
                incremental_translate: true,
                ..Optimizations::default()
            })
            .with_incremental(IncrementalConfig {
                dirty_rate_pages_per_sec: DIRTY_RATE,
                ..IncrementalConfig::default()
            })
    }

    /// Rebuilds the fleet and drives each guest through the workload
    /// ticks the engine reports (one tick per warm refresh round, then the
    /// carry-over): each domain's dirty stream is deterministic, so this
    /// yields every guest's memory and vCPU state at pause without the
    /// engine. Probes the seeded words plus pages the workload dirtied.
    fn pre_transplant_states(
        &self,
        report: &InPlaceReport,
    ) -> Result<BTreeMap<String, GuestState>, String> {
        let mut fleet = build(&self.reg, self.seed)?;
        let Fleet { m, src, probes } = &mut fleet;
        let ids = src.vm_ids();
        for &id in &ids {
            src.enable_dirty_log(id).map_err(err)?;
        }
        let ticks = report.warm_rounds.iter().skip(1).map(|w| w.tick_pages);
        for tick in ticks.chain([report.warm_carryover_pages]) {
            if tick > 0 {
                for &id in &ids {
                    src.guest_tick(m, id, tick).map_err(err)?;
                }
            }
        }
        let mut states = BTreeMap::new();
        for &id in &ids {
            let name = src.vm_config(id).map_err(err)?.name.clone();
            let mut gfns = probes.remove(&name).unwrap_or_default();
            let dirty = src.collect_dirty(id).map_err(err)?;
            gfns.extend(dirty.into_iter().take(DIRTY_PROBES));
            let words = gfns
                .iter()
                .map(|&g| src.read_guest(m, id, g).map(|w| (g, w)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            src.notify_prepare_transplant(m, id).map_err(err)?;
            src.pause_vm(id).map_err(err)?;
            let vcpus = src.save_uisr(m, id).map_err(err)?.vcpus;
            states.insert(name, GuestState { words, vcpus });
        }
        Ok(states)
    }
}

impl Workload for InPlaceWorkload {
    fn setup_only(&self) -> Result<Duration, String> {
        time_setup(|| build(&self.reg, self.seed))
    }

    fn run_op(&mut self, ctx: &mut OpCtx<'_>) -> Result<OpOut, String> {
        let tracer = ctx.tracer;
        let (fleet, setup) = tracer.span("setup", || build(&self.reg, self.seed));
        let Fleet { mut m, src, .. } = fleet?;
        let engine = self.engine();
        let (result, call) = tracer.span("InPlaceTransplant::run", || {
            engine.run(&mut m, src, HypervisorKind::Kvm)
        });
        let (mut hv, report) = result.map_err(err)?;
        if self.expected.is_none() {
            self.expected = Some(self.pre_transplant_states(&report)?);
        }
        let expected = self.expected.as_ref().expect("derived above");
        tracer
            .span("check", || check(&m, hv.as_mut(), expected))
            .0?;
        let sim = SimOutcome {
            downtime_ms_mean: Some(ms(report.downtime())),
            downtime_ms_max: Some(ms(report.downtime())),
            total_s: report.total().as_secs_f64(),
            wire_mb: None,
            exposure_vm_days: None,
            disruption_min: None,
        };
        let fingerprint = format!("{report:?}");
        if let Some(ledger) = ctx.ledger.as_deref_mut() {
            record_report(&report, call, ledger);
            tracer
                .span("replay", || self.replay(tracer, ctx.pool, &report, ledger))
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

/// Every guest must come back on KVM with its probed words and vCPU state
/// exactly as they were at pause.
fn check(
    m: &Machine,
    hv: &mut dyn Hypervisor,
    expected: &BTreeMap<String, GuestState>,
) -> Result<(), String> {
    if hv.vm_ids().len() != expected.len() {
        return Err(format!(
            "{} guests restored, {} transplanted",
            hv.vm_ids().len(),
            expected.len()
        ));
    }
    for (name, want) in expected {
        let id = hv
            .find_vm(name)
            .ok_or_else(|| format!("{name}: not restored"))?;
        for &(gfn, word) in &want.words {
            let got = hv.read_guest(m, id, gfn).map_err(err)?;
            if got != word {
                return Err(format!(
                    "{name}: gfn {:#x} holds {got:#x}, {word:#x} before the transplant",
                    gfn.0
                ));
            }
        }
        hv.pause_vm(id).map_err(err)?;
        let vcpus = hv.save_uisr(m, id).map_err(err)?.vcpus;
        if !vcpus_match(&vcpus, &want.vcpus) {
            return Err(format!("{name}: restored vCPU state differs"));
        }
    }
    Ok(())
}

fn record_report(report: &InPlaceReport, call: Duration, ledger: &mut Ledger) {
    ledger.record("core.inplace.run_ms", call.as_secs_f64() * 1e3);
    for (name, d) in [
        ("core.inplace.phase.pram_ms", report.pram),
        ("core.inplace.phase.translation_ms", report.translation),
        ("core.inplace.phase.reboot_ms", report.reboot),
        ("core.inplace.phase.restoration_ms", report.restoration),
        ("core.inplace.phase.network_ms", report.network),
        (
            "core.inplace.phase.warm_translate_ms",
            report.warm_translate,
        ),
    ] {
        ledger.record(name, ms(d));
    }
    ledger.record("core.inplace.warm_rounds", report.warm_rounds.len() as f64);
    ledger.record("core.inplace.dirty_fraction", report.dirty_fraction);
    ledger.record(
        "core.inplace.patched_sections",
        report.patched_sections as f64,
    );
    ledger.record("pram.entries", report.pram_stats.entries as f64);
    ledger.record(
        "pram.metadata_kb",
        report.pram_stats.metadata_bytes() as f64 / 1024.0,
    );
    ledger.record(
        "uisr.bytes_per_vm",
        report.uisr_bytes as f64 / report.vm_count.max(1) as f64,
    );
}

impl InPlaceWorkload {
    /// Replays the transplant's layer calls on a fresh copy of the fleet,
    /// in the engine's order: RAM checksums, Xen save, UISR encode and
    /// decode, PRAM build and parse, and KVM restore onto prepared shells.
    fn replay(
        &self,
        tracer: &Tracer,
        pool: hypertp::sim::WorkerPool,
        report: &InPlaceReport,
        ledger: &mut Ledger,
    ) -> Result<(), String> {
        let Fleet { mut m, mut src, .. } = build(&self.reg, self.seed)?;
        let ids = src.vm_ids();
        let mut maps = Vec::new();
        for &id in &ids {
            let name = src.vm_config(id).map_err(err)?.name.clone();
            maps.push((name, src.guest_memory_map(id).map_err(err)?));
        }
        let extents: Vec<Vec<Extent>> = maps
            .iter()
            .map(|(_, map)| map.iter().map(|(_, e)| *e).collect())
            .collect();
        let pages: u64 = extents.iter().flatten().map(|e| e.pages()).sum();
        let (_, d) = tracer.span("machine.ram.checksum_with_pool", || {
            for e in &extents {
                std::hint::black_box(m.ram().checksum_with_pool(e, &pool));
            }
        });
        ledger.per_unit_ns("machine.ram.checksum_ns_per_page", d, pages);

        for &id in &ids {
            src.notify_prepare_transplant(&mut m, id).map_err(err)?;
            src.pause_vm(id).map_err(err)?;
        }
        let n = ids.len() as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
        let (uisrs, d) = tracer.span("xen.save_uisr", || {
            ids.iter()
                .map(|&id| src.save_uisr(&m, id))
                .collect::<Result<Vec<_>, _>>()
        });
        let uisrs = uisrs.map_err(err)?;
        ledger.record("xen.save_uisr_us_per_vm", us(d));
        let (blobs, d) = tracer.span("uisr.codec.encode", || {
            uisrs.iter().map(hypertp::uisr::encode).collect::<Vec<_>>()
        });
        ledger.record("uisr.encode_us_per_vm", us(d));
        let (decoded, d) = tracer.span("uisr.codec.decode", || {
            blobs
                .iter()
                .map(|b| hypertp::uisr::decode(b))
                .collect::<Result<Vec<_>, _>>()
        });
        ledger.record("uisr.decode_us_per_vm", us(d));
        if decoded.map_err(err)? != uisrs {
            return Err("UISR decode does not invert encode".into());
        }

        let (handle, d) = tracer.span("pram.build", || {
            let mut builder = PramBuilder::new().with_pool(pool);
            for ((name, map), blob) in maps.iter().zip(&blobs) {
                builder.add_file(name.clone(), 0o600, map.clone());
                uisr_store::store_blob(m.ram_mut(), &mut builder, name, blob)?;
            }
            builder.write(m.ram_mut()).map_err(Into::into)
        });
        let handle = handle.map_err(|e: hypertp::core::HtpError| err(e))?;
        let entries = handle.stats().entries;
        if entries != report.pram_stats.entries {
            return Err(format!(
                "replayed PRAM holds {entries} entries, the transplant's {}",
                report.pram_stats.entries
            ));
        }
        ledger.per_unit_ns("pram.build_ns_per_entry", d, entries);
        let (parsed, d) = tracer.span("pram.parse_verify", || {
            let image = PramImage::parse(m.ram(), handle.pram_ptr)?;
            image.verify()?;
            Ok(image.total_entries())
        });
        parsed.map_err(|e: hypertp::pram::PramError| err(e))?;
        ledger.per_unit_ns("pram.parse_ns_per_entry", d, entries);

        let mut dst_m = Machine::new(MachineSpec::m1());
        let mut kvm = self
            .reg
            .create(HypervisorKind::Kvm, &mut dst_m)
            .map_err(err)?;
        let mut shells = Vec::new();
        for &id in &ids {
            let cfg = src.vm_config(id).map_err(err)?.clone();
            shells.push(kvm.prepare_incoming(&mut dst_m, &cfg).map_err(err)?);
        }
        let (restored, d) = tracer.span("kvm.restore_uisr", || {
            shells
                .iter()
                .zip(&uisrs)
                .try_for_each(|(&shell, uisr)| kvm.restore_uisr(&mut dst_m, shell, uisr).map(drop))
        });
        restored.map_err(err)?;
        ledger.record("kvm.restore_uisr_us_per_vm", us(d));
        Ok(())
    }
}
