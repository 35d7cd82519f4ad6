#!/usr/bin/env bash
# The tier-1 gate: release build, every workspace test plus the
# benchmark's tests, clippy clean across every target, and the examples'
# output checked byte for byte. Run before every merge; everything is
# deterministic (seeded virtual time), so a green run here is a green
# run anywhere.
#
#   ci.sh            — build + tests + clippy + examples oracle
#
# PROPTEST_CASES can be exported to shrink or grow the property-test
# budget (default 64 cases per property).
set -euo pipefail

cd "$(dirname "$0")/.."
root="$(pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test --workspace =="
cargo test --workspace -q

# The benchmark's own checks (exactly-once ops, packet conservation,
# same-seed repeatability) on shortened episodes, so a refactor that
# breaks them fails here rather than in a benchmark run.
echo "== tier-1: perfbench tests =="
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier-1: cargo clippy --workspace --all-targets =="
cargo clippy --workspace --all-targets -- -D warnings

# Observability smoke: the recorder bench must keep the modeled run
# identical (asserted inside the bin) and both exports must be valid
# JSON — the timeline in particular must stay loadable by Chrome
# tracing / Perfetto, which json.tool approximates structurally.
echo "== tier-1: bench_obs smoke + export validation =="
mkdir "$tmp/obs"
cargo run --release -q -p snap-bench --bin bench_obs \
    "$tmp/obs/BENCH_pr10.json" "$tmp/obs/TIMELINE_pr10.json"
python3 -m json.tool "$tmp/obs/BENCH_pr10.json" > /dev/null
python3 -m json.tool "$tmp/obs/TIMELINE_pr10.json" > /dev/null
echo "bench_obs exports parse as JSON"

# The modeled-output oracle: every example's stdout (and the timeline
# fault_injection writes) must hash to what scripts/examples.sha256
# records, so a refactor that claims to leave the model alone is
# checked, not trusted. A change that means to move the model updates
# that file and says so. Examples run in a scratch directory, where
# fault_injection writes its timeline.
echo "== tier-1: examples print their recorded output =="
mkdir "$tmp/examples"
cargo build --release -q --examples
for ex in $(sed -n 's/^[0-9a-f]*  \(.*\)\.stdout$/\1/p' scripts/examples.sha256); do
    (cd "$tmp/examples" && cargo run --release -q \
        --manifest-path "$root/Cargo.toml" --example "$ex" > "$ex.stdout")
done
(cd "$tmp/examples" && sha256sum --quiet -c "$root/scripts/examples.sha256")
echo "examples match scripts/examples.sha256"

echo "tier-1 gate: OK"
