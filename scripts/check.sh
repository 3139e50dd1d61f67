#!/usr/bin/env bash
# Full verification: format, lints, tests (incl. the heavy full-size ones),
# examples, evaluation binaries, benches and a serving smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== preflight (offline dependency resolution) =="
# Every dependency is a path crate (see vendor/README.md); resolution must
# never touch a registry. If this fails, a registry dependency crept back in
# and the default registry (see ~/.cargo/config.toml) is unreachable from
# this environment — vendor the crate under vendor/ instead.
if ! cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
  echo "error: dependency resolution needs network access (registry unreachable)." >&2
  echo "       All external crates must be vendored as path dependencies under vendor/ —" >&2
  echo "       see vendor/README.md for the pattern." >&2
  exit 1
fi

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace

echo "== serving integration tests =="
cargo test -p npcgra --test serving

echo "== heavy tests (full-size Table 5 layers) =="
cargo test --workspace --release -- --ignored

echo "== examples =="
for ex in quickstart schedule_viewer fir_filter; do
  cargo run --release --example "$ex" >/dev/null
done
cargo run --release --example mobilenet >/dev/null
cargo run --release --example alexnet >/dev/null

echo "== evaluation binaries =="
for b in table1 table3 table5 table6 fig12 fig_schedules fig_layouts \
         batching_gain energy_table width_study mapping_gap ccf_check; do
  cargo run --release -q -p npcgra-eval --bin "$b" >/dev/null
done

echo "== benchmark unit tests and traced serve-fast smoke (bit-exact replies, tier cycle parity) =="
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload serve-fast --seconds 5 --trace 1 >/dev/null

echo "== serve-bench smoke run (both tiers + wire path + journal cost, archived to BENCH_serve.json) =="
cargo run --release -q -p npcgra-cli -- serve-bench \
  --machine 4x4 --workers 4 --clients 8 --requests 80 \
  --tier both --net --net-conns 4 --journal --emit-json BENCH_serve.json >/dev/null

echo "== chaos soak (fault injection + worker panic must be survived) =="
cargo run --release -q -p npcgra-cli -- chaos-bench \
  --machine 4x4 --workers 4 --clients 8 --seconds 10 \
  --fault-rate 1e-4 --panic-worker 0 >/dev/null

echo "== detection soak (silent corruption must be caught and healed) =="
cargo run --release -q -p npcgra-cli -- chaos-bench \
  --machine 4x4 --workers 4 --clients 8 --seconds 8 \
  --fault-rate 5e-4 --assert-detection >/dev/null

echo "== fast-tier detection soak (ABFT must catch corruption on the fast tier too) =="
cargo run --release -q -p npcgra-cli -- chaos-bench \
  --machine 4x4 --workers 4 --clients 8 --seconds 8 \
  --fault-rate 5e-4 --tier fast --assert-detection >/dev/null

echo "== gray soak (wedges/stalls/slowdowns must be preempted and recovered) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --gray \
  --workers 4 --clients 6 --seconds 4 --assert-liveness >/dev/null

echo "== gray control (armed watchdog must never preempt a healthy fleet) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --gray \
  --gray-rate 0 --workers 4 --clients 6 --seconds 2 --assert-liveness >/dev/null

echo "== overload soak (2x capacity; admitted Interactive must hold its SLO) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --overload \
  --machine 4x4 --workers 4 --clients 8 --seconds 4 --assert-slo >/dev/null

echo "== pipeline soak (stage kill/wedge/corruption must heal from checkpoints, bit-exact) =="
# Zero-overload control for the combined gate below: no deadlines, no
# brownout, no watchdog — healing alone must carry the soak.
cargo run --release -q -p npcgra-cli -- chaos-bench --pipeline \
  --stages 4 --spares 1 --checkpoint-every 1 --requests 24 --assert-liveness >/dev/null

echo "== pipeline overload soak (2x capacity + stage wedge/kill; SLO, watchdog and brownout must hold) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --pipeline --overload \
  --assert-slo >/dev/null

echo "== net soak (2x wire capacity over 500+ connections + slow-loris/malformed/disconnect attackers) =="
# The soak's built-in phase 0 is the zero-chaos control: the same inputs
# through the socket front-end and through in-process submit must produce
# bit-identical tensors before any attacker population comes up.
# --slo-ms 400: wire p99 sits near 20ms, but the timing calibration runs
# on the shared CI box — 400ms absorbs noisy-neighbor slowdowns without
# weakening the no-lost/no-wrong/every-attacker-caught gates.
cargo run --release -q -p npcgra-cli -- chaos-bench --net \
  --machine 4x4 --workers 4 --seconds 4 --slo-ms 400 --assert-slo >/dev/null

echo "== crash soak (journaled core hard-killed; keys must survive exactly-once) =="
# The net soak above stays the no-journal control for the wire path; this
# gate hard-kills the journaled core three times under keyed load and
# fails unless nothing admitted is lost, nothing executes twice, every
# reply is bit-exact, and the journal-off control phase shows the journal
# is inert when disabled.
cargo run --release -q -p npcgra-cli -- chaos-bench --crash \
  --machine 4x4 --workers 4 --assert-durability >/dev/null

echo "== benches (quick pass) =="
cargo bench -p npcgra-bench >/dev/null

echo "ALL CHECKS PASSED"
