//! The metrics the result line carries, as `BENCHMARK.json` declares
//! them: end-to-end metrics on untraced runs, per-layer metrics on traced
//! runs. Units prefixed `sim_` are simulated time, which must not move
//! with host speed; all other times are host time.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics every workload reports, each never zero.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("op_ms_p50", "ms"),
    m("peak_rss_mb", "MB"),
    m("sim_total_s", "sim_s"),
];

/// Per-layer metrics. A workload that does not exercise a layer reports 0
/// for it.
pub const PER_LAYER: &[Metric] = &[
    m("sim.hash.digest_ns_per_page", "ns/page"),
    m("machine.guest_read_ns_per_page", "ns/page"),
    m("machine.ram.checksum_ns_per_page", "ns/page"),
    m("migrate.fleet_ms", "ms"),
    m("migrate.raw_ref_ms", "ms"),
    m("migrate.wire.overhead_x", "x"),
    m("migrate.wire.encode_ns_per_page", "ns/page"),
    m("migrate.wire.apply_ns_per_page", "ns/page"),
    m("migrate.wire.frames.zero", "count"),
    m("migrate.wire.frames.dup", "count"),
    m("migrate.wire.frames.delta", "count"),
    m("migrate.wire.frames.raw", "count"),
    m("migrate.wire.bytes.zero", "bytes"),
    m("migrate.wire.bytes.dup", "bytes"),
    m("migrate.wire.bytes.delta", "bytes"),
    m("migrate.wire.bytes.raw", "bytes"),
    m("migrate.wire.cache_evictions", "count"),
    m("migrate.wire.dedup_hit_rate", "frac"),
    m("migrate.engine.rounds", "count"),
    m("migrate.engine.pages_sent", "count"),
    m("migrate.engine.resent_frac", "frac"),
    m("migrate.engine.stop_pages", "count"),
    m("migrate.engine.host_ms_per_round", "ms"),
    m("migrate.engine.scratch_grows", "count"),
    m("migrate.control.final_throttle", "frac"),
    m("migrate.control.forced_stop", "count"),
    m("migrate.control.precopy_error_pct", "%"),
    m("migrate.phase.precopy_s", "sim_s"),
    m("migrate.phase.stop_copy_ms", "sim_ms"),
    m("core.inplace.run_ms", "ms"),
    m("pram.build_ns_per_entry", "ns/entry"),
    m("pram.parse_ns_per_entry", "ns/entry"),
    m("pram.entries", "count"),
    m("pram.metadata_kb", "KiB"),
    m("xen.save_uisr_us_per_vm", "us/vm"),
    m("uisr.encode_us_per_vm", "us/vm"),
    m("uisr.decode_us_per_vm", "us/vm"),
    m("uisr.bytes_per_vm", "bytes"),
    m("kvm.restore_uisr_us_per_vm", "us/vm"),
    m("core.inplace.phase.pram_ms", "sim_ms"),
    m("core.inplace.phase.translation_ms", "sim_ms"),
    m("core.inplace.phase.reboot_ms", "sim_ms"),
    m("core.inplace.phase.restoration_ms", "sim_ms"),
    m("core.inplace.phase.network_ms", "sim_ms"),
    m("core.inplace.phase.warm_translate_ms", "sim_ms"),
    m("core.inplace.warm_rounds", "count"),
    m("core.inplace.dirty_fraction", "frac"),
    m("core.inplace.patched_sections", "count"),
    m("cluster.planner.plan_ms", "ms"),
    m("cluster.exec.execute_ms", "ms"),
    m("cluster.exposure.cost_table_ms", "ms"),
    m("cluster.exposure.replan_us_per_event", "us/event"),
    m("cluster.exec.migrations", "count"),
    m("cluster.exec.inplace_upgrades", "count"),
    m("cluster.exposure.remediated_events", "count"),
    m("cluster.exposure.escalated_events", "count"),
    m("cluster.exposure.deferred_vms", "count"),
    m("vulndb.feed.events", "count"),
    m("sim.pool.workers", "count"),
    m("bench.trace_overhead_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp::sim::Json;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        let field = |entry: &Json, name: &str| {
            entry
                .get(name)
                .and_then(Json::as_str)
                .expect("metric field")
                .to_string()
        };
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// The result line must carry exactly what `BENCHMARK.json` declares.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
