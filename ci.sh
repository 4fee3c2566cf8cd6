#!/usr/bin/env bash
# CI entry point: formatting, lints, release build, full test suite.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== ignored-test guard =="
# Every #[ignore] must carry a tracking note: either an inline reason
# (`#[ignore = "..."]`) or a `tracked:` comment on the same line. A bare
# #[ignore] silently sheds coverage, so it fails the build.
untracked=$(grep -rn --include='*.rs' '#\[ignore' crates tests \
  | grep -v 'ignore = "' | grep -v 'tracked:' || true)
if [ -n "${untracked}" ]; then
  echo "error: #[ignore] without a reason string or 'tracked:' comment:" >&2
  echo "${untracked}" >&2
  exit 1
fi

echo "== chaos matrix (pinned seeds 0xc4a0_0001..3) =="
# The matrix's CI-seed tests are pinned in-code; re-running the env
# override test under each pinned seed additionally exercises the
# HYPERTP_SEED replay path end to end.
cargo test -q --offline --test chaos_matrix
for seed in 0xc4a00001 0xc4a00002 0xc4a00003; do
  HYPERTP_SEED="${seed}" cargo test -q --offline --test chaos_matrix \
    chaos_matrix_env_seed_override
done

echo "== perf gate (identity + wire compression + encode speedup floors) =="
# Run perf_smoke twice (wall-clock jitters; identity and compression must
# not) plus one wire_smoke (ring-vs-legacy identity and the encode-path
# speedup floor) and gate on the committed BENCH_wire.json floors.
# Artifacts go to a scratch dir so the committed BENCH_*.json stay
# untouched.
gate_dir=$(mktemp -d)
trap 'rm -rf "${gate_dir}"' EXIT
PERF_SMOKE_OUT="${gate_dir}/perf1.json" \
  cargo run -q --release --offline -p hypertp-bench --bin perf_smoke
PERF_SMOKE_OUT="${gate_dir}/perf2.json" \
  cargo run -q --release --offline -p hypertp-bench --bin perf_smoke
WIRE_SMOKE_OUT="${gate_dir}/wire.json" \
  cargo run -q --release --offline -p hypertp-bench --bin wire_smoke
cargo run -q --release --offline -p hypertp-bench --bin perf_gate -- \
  wire BENCH_wire.json "${gate_dir}/perf1.json" "${gate_dir}/perf2.json" \
  "${gate_dir}/wire.json"

echo "== UDS proxy smoke (two-process source/destination pair) =="
# The §4.2 proxy pair over a real Unix-domain socket: destination binds
# in the background, source migrates a VM through it, both must exit
# cleanly with matching checksums (run_source verifies the destination's
# echoed checksum and fails otherwise).
proxy_sock="${gate_dir}/proxy.sock"
cargo run -q --release --offline --bin hypertpctl -- \
  proxy dest --socket "${proxy_sock}" &
proxy_dest_pid=$!
cargo run -q --release --offline --bin hypertpctl -- \
  proxy source --socket "${proxy_sock}"
wait "${proxy_dest_pid}"

echo "== adaptive gate (downtime cut + budget + scheduler floors) =="
# adaptive_smoke's comparisons are over *simulated* time, so the fresh
# artifact must meet the committed BENCH_adaptive.json floors exactly:
# mean-downtime cut >= floor, makespan not lengthened, budget respected,
# SPDF still beating FIFO.
ADAPTIVE_SMOKE_OUT="${gate_dir}/adaptive.json" \
  cargo run -q --release --offline -p hypertp-bench --bin adaptive_smoke
cargo run -q --release --offline -p hypertp-bench --bin perf_gate -- \
  adaptive BENCH_adaptive.json "${gate_dir}/adaptive.json"

echo "== inplace gate (incremental downtime cut + identity floors) =="
# inplace_smoke runs the Fig. 6-style ablation; the fresh artifact must
# meet the committed BENCH_inplace.json floors: hot-fleet mean-downtime
# cut >= floor, incremental-off byte-identity, equal restored state,
# deterministic rerun.
INPLACE_SMOKE_OUT="${gate_dir}/inplace.json" \
  cargo run -q --release --offline -p hypertp-bench --bin inplace_smoke
cargo run -q --release --offline -p hypertp-bench --bin perf_gate -- \
  inplace BENCH_inplace.json "${gate_dir}/inplace.json"

echo "== campaign gate (scaling exponent + sharded identity floors) =="
# campaign_smoke sweeps synthetic fleets 1k→10k hosts; the fresh artifact
# must meet the committed BENCH_campaign.json floors: fitted plan+exec
# scaling exponent under the ceiling, sharded execution beating the
# per-host-evaluation baseline at 1k hosts, and byte-identical reports
# across shard/worker counts.
CAMPAIGN_SMOKE_OUT="${gate_dir}/campaign.json" \
  cargo run -q --release --offline -p hypertp-bench --bin campaign_smoke
cargo run -q --release --offline -p hypertp-bench --bin perf_gate -- \
  campaign BENCH_campaign.json "${gate_dir}/campaign.json"

echo "== rehype gate (crash-recovery cut + state-loss bound floors) =="
# rehype_smoke crashes the hypervisor at every warm-checkpoint phase; the
# fresh artifact must meet the committed BENCH_rehype.json floors: warm
# recovery beating the cold salvage-translate ablation at every phase,
# checkpoint lag strictly below the staleness bound, deterministic rerun,
# field-diff toggle inert.
REHYPE_SMOKE_OUT="${gate_dir}/rehype.json" \
  cargo run -q --release --offline -p hypertp-bench --bin rehype_smoke
cargo run -q --release --offline -p hypertp-bench --bin perf_gate -- \
  rehype BENCH_rehype.json "${gate_dir}/rehype.json"

echo "== slo gate (violation cut + makespan + budget floors) =="
# slo_smoke drains the 150-VM diurnal fleet twice (traffic-blind SPDF vs
# SLO-aware admission, identical physics); the fresh artifact must meet
# the committed BENCH_slo.json floors: violation cut >= floor, makespan
# ratio under the ceiling, no VM exhausting its error budget, and the
# deterministic / sharded / zero-traffic identity fields all true.
SLO_SMOKE_OUT="${gate_dir}/slo.json" \
  cargo run -q --release --offline -p hypertp-bench --bin slo_smoke
cargo run -q --release --offline -p hypertp-bench --bin perf_gate -- \
  slo BENCH_slo.json "${gate_dir}/slo.json"

echo "== exposure gate (exposure cut + replan speedup floors) =="
# exposure_smoke replays one seeded year of disclosures over a 1k-host
# fleet twice (surface-aware vs surface-blind planning, same calibrated
# exposure metric); the fresh artifact must meet the committed
# BENCH_exposure.json floors: integrated-exposure cut >= floor,
# incremental re-plan beating the per-event cost-table rebuild, and the
# deterministic / sharded / feed-off / empty-feed identity fields all
# true.
EXPOSURE_SMOKE_OUT="${gate_dir}/exposure.json" \
  cargo run -q --release --offline -p hypertp-bench --bin exposure_smoke
cargo run -q --release --offline -p hypertp-bench --bin perf_gate -- \
  exposure BENCH_exposure.json "${gate_dir}/exposure.json"

echo "== hypertpctl feed smoke (surface-aware vs blind planning) =="
# The operator-facing feed replay: the --blind flag must switch the
# planning mode shown in the output, and both runs must report the
# integrated-exposure summary line.
cargo run -q --release --offline --bin hypertpctl -- feed --hosts 30 --days 90 \
  | grep -q "surface-aware planning"
cargo run -q --release --offline --bin hypertpctl -- feed --hosts 30 --days 90 --blind \
  | grep -q "surface-blind planning"
cargo run -q --release --offline --bin hypertpctl -- feed --hosts 30 --days 90 \
  | grep -q "integrated exposure"

echo "== hypertpctl fleet smoke (--slo-aware flag) =="
# The operator-facing path to SLO-aware admission: same fleet twice, the
# flag must switch the admission policy shown in the output.
cargo run -q --release --offline --bin hypertpctl -- fleet --vms 3 \
  | grep -q "fifo admission"
cargo run -q --release --offline --bin hypertpctl -- fleet --vms 3 --slo-aware \
  | grep -q "slo admission"

echo "== perfbench (unit tests + one-second smoke of every workload) =="
# The benchmark is a workspace of its own, so the workspace test run above
# does not reach it. Each smoke must exit 0 and report every op correct.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in idle-fleet hot-vm inplace-m1 feed-year; do
  echo "-- perfbench: ${workload} --"
  result=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "${workload}" --seed 1 --seconds 1 | tail -n 1)
  if ! grep -q '"correct": true' <<<"${result}"; then
    echo "error: perfbench ${workload} smoke not correct: ${result}" >&2
    exit 1
  fi
done

echo "== examples (keep them compiling *and* running) =="
for example in quickstart migration_vs_inplace datacenter_upgrade vulnerability_response; do
  echo "-- example: ${example} --"
  cargo run -q --release --offline --example "${example}" >/dev/null
done

echo "CI OK"
