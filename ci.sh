#!/usr/bin/env sh
# Minimal CI gate for the easched workspace. Run from the repo root.
#
# Mirrors the tier-1 acceptance commands (build + root-package tests) and
# adds the full workspace test suite, formatting, and lints.
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> chaos matrix: release, full desktop suite"
cargo test -q --release --test chaos

echo "==> chaos matrix: debug seed sweep"
for seed in 7 23 1009; do
    echo "    EASCHED_CHAOS_SEED=$seed"
    EASCHED_CHAOS_SEED=$seed cargo test -q --test chaos
done

echo "==> telemetry smoke: traced example round-trips, drift study emits CSV"
cargo run --release --example chaos_runtime -- --trace target/ci-chaos.trace.json > /dev/null
test -s target/ci-chaos.trace.json
cargo run --release -p easched-bench --bin figures -- --out target/ci-results telemetry > /dev/null
test -s target/ci-results/telemetry.csv

echo "==> self-healing smoke: drift injection -> auto-reprofile -> convergence"
cargo run --release --example self_healing > /dev/null

echo "==> crash-recovery smoke: SIGKILL mid-run, journal must restore the table"
rm -rf target/ci-crash.d
cargo build --release --example shared_runtime
# One completed run guarantees the store has content, then a long run is
# killed hard mid-flight; recovery must still produce a clean table.
./target/release/examples/shared_runtime --store target/ci-crash.d > /dev/null
./target/release/examples/shared_runtime --store target/ci-crash.d --repeat 5000 > /dev/null 2>&1 &
CRASH_PID=$!
sleep 2
kill -9 "$CRASH_PID" 2>/dev/null || true
wait "$CRASH_PID" 2>/dev/null || true
./target/release/examples/shared_runtime --store target/ci-crash.d --verify-recovery

echo "==> storm chaos: hang + power-surge storm, release"
cargo test -q --release --test selfheal

echo "==> replay smoke: record a chaos storm, replay must be byte-identical"
./target/release/easched record --out target/ci-replay.runlog --seed 7 > /dev/null
./target/release/easched replay --log target/ci-replay.runlog

echo "==> replay bisect: perturbed log must diverge and shrink to a reproducer"
if ./target/release/easched replay --log target/ci-replay.runlog \
    --perturb 40 --bisect --emit-fixture target/ci-replay-min.runlog > target/ci-bisect.out; then
    echo "perturbed replay did not diverge -- the reporter is broken"
    exit 1
fi
grep -q "first divergent decision" target/ci-bisect.out
test -s target/ci-replay-min.runlog

echo "==> overload storm: 8 tenants at 2x load, seed matrix, all gates"
cargo build --release --example multi_tenant
for seed in 7 23 1009; do
    echo "    multi_tenant --seed $seed --ci"
    ./target/release/examples/multi_tenant --seed "$seed" --ci > /dev/null
done

echo "==> overload replay: record one overloaded run, byte-identical via easched replay"
./target/release/easched record --out target/ci-overload.runlog --overload --seed 7 > /dev/null
./target/release/easched replay --log target/ci-overload.runlog

echo "==> storm scaling: overload cost per request must not grow with run length"
# Best-of-three wall time of a seed-7 overload recording, divided by the
# requests it executed (the count `record` prints). The 256-tick storm
# may cost at most 1.3x per request what the 32-tick one does.
storm_us_per_request() {
    best=""
    for _ in 1 2 3; do
        t0=$(date +%s%N)
        out=$(./target/release/easched record --out "target/ci-storm-$1.runlog" \
            --overload --seed 7 --ticks "$1" 2>/dev/null)
        t1=$(date +%s%N)
        if [ -z "$best" ] || [ $((t1 - t0)) -lt "$best" ]; then best=$((t1 - t0)); fi
    done
    executed=$(echo "$out" | sed -n 's/.* \([0-9]*\) executed,.*/\1/p')
    [ "${executed:-0}" -gt 0 ] || exit 1
    echo $((best / 1000 / executed))
}
US_32=$(storm_us_per_request 32)
US_256=$(storm_us_per_request 256)
echo "    us/request: 32 ticks $US_32, 256 ticks $US_256"
if [ $((US_256 * 10)) -gt $((US_32 * 13)) ]; then
    echo "storm cost per request grows with run length (limit 1.3x)"
    exit 1
fi
./target/release/easched replay --log target/ci-storm-256.runlog

echo "==> observability plane: live scrape during a storm + SLO exemplar replay"
rm -f target/ci-serve.out
./target/release/easched serve --addr 127.0.0.1:0 --seed 7 --ticks 32 \
    --out target/ci-serve.runlog --trace target/ci-serve.trace.json \
    --hold 20 > target/ci-serve.out 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q '^serving on http://' target/ci-serve.out 2>/dev/null && break
    sleep 0.2
done
SERVE_ADDR=$(sed -n 's|^serving on http://||p' target/ci-serve.out | head -n 1)
test -n "$SERVE_ADDR"
./target/release/easched scrape --addr "$SERVE_ADDR" --path /metrics > target/ci-serve-metrics.txt
./target/release/easched scrape --addr "$SERVE_ADDR" --path /health > target/ci-serve-health.txt
./target/release/easched scrape --addr "$SERVE_ADDR" --path /slo > target/ci-serve-slo.txt
grep -q '^easched_invocations_total' target/ci-serve-metrics.txt
grep -q '^easched_slo_breaches_total' target/ci-serve-metrics.txt
grep -q '^easched_build_info{' target/ci-serve-metrics.txt
grep -q '^easched_uptime_seconds' target/ci-serve-metrics.txt
grep -q '"fault_free"' target/ci-serve-health.txt
grep -q '"burn_threshold"' target/ci-serve-slo.txt
# Wait for the post-storm artifacts (run log, then span trace) so a
# breach exemplar can be replayed to its slice.
for _ in $(seq 1 150); do
    grep -q '^span trace written' target/ci-serve.out 2>/dev/null && break
    sleep 0.2
done
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_OFFSET=$(sed -n 's/.*--at \([0-9]*\)$/\1/p' target/ci-serve.out | head -n 1)
test -n "$SERVE_OFFSET"
./target/release/easched replay --log target/ci-serve.runlog --at "$SERVE_OFFSET" > /dev/null
grep -q '"cat":"span"' target/ci-serve.trace.json

echo "==> fleet chaos matrix: 3-node convergence under drops/dups/reorder/partition"
for seed in 7 23 1009; do
    echo "    fleet --seed $seed"
    rm -rf "target/ci-fleet-$seed.d"
    ./target/release/easched fleet --seed "$seed" \
        --store "target/ci-fleet-$seed.d" \
        --record "target/ci-fleet-$seed.runlog" > /dev/null
done

echo "==> fleet kill -9: SIGKILL a live fleet, every journal must recover clean"
rm -rf target/ci-fleet-crash.d
# One completed run seeds the stores; the long run then dies mid-flight.
./target/release/easched fleet --seed 7 --quiet-fabric --ticks 3 \
    --store target/ci-fleet-crash.d > /dev/null
./target/release/easched fleet --seed 7 --quiet-fabric --ticks 5000 \
    --store target/ci-fleet-crash.d > /dev/null 2>&1 &
FLEET_PID=$!
sleep 2
kill -9 "$FLEET_PID" 2>/dev/null || true
wait "$FLEET_PID" 2>/dev/null || true
./target/release/easched fleet --verify-recovery target/ci-fleet-crash.d

echo "==> fleet replay: recorded chaos run must be byte-identical"
./target/release/easched fleet --replay target/ci-fleet-7.runlog

echo "==> storage chaos: every-fault-point sweep (DESIGN.md §16)"
cargo test -q --release -p easched-core --test storage_chaos

echo "==> storage chaos: seeded write-fault storms through the shared store"
for seed in 7 23 1009; do
    echo "    shared_runtime --chaos-fs 150 --seed $seed"
    rm -rf "target/ci-schaos-$seed.d"
    ./target/release/examples/shared_runtime --store "target/ci-schaos-$seed.d" \
        --chaos-fs 150 --seed "$seed" > /dev/null
    ./target/release/examples/shared_runtime --store "target/ci-schaos-$seed.d" \
        --verify-recovery > /dev/null
done

echo "==> storage chaos: recorded run under injected faults replays byte-identically"
./target/release/easched record --out target/ci-schaos.runlog --seed 7 --chaos-fs 150 > /dev/null
./target/release/easched replay --log target/ci-schaos.runlog

echo "==> storage chaos: fleet on failing disks converges, records, replays"
./target/release/easched fleet --seed 7 --chaos-fs 200 --crash 1:2:4 \
    --record target/ci-schaos-fleet.runlog > /dev/null
./target/release/easched fleet --replay target/ci-schaos-fleet.runlog

echo "==> storage chaos: real ENOSPC on a full tmpfs (skipped without mount privileges)"
ENOSPC_DIR=target/ci-enospc-mnt
rm -rf "$ENOSPC_DIR"; mkdir -p "$ENOSPC_DIR"
if mount -t tmpfs -o size=256k tmpfs "$ENOSPC_DIR" 2>/dev/null; then
    # Seed durable state while the disk has room, then fill the device
    # solid: the next run hits genuine ENOSPC on every journal write.
    # `--chaos-fs 0` injects nothing but enables the tolerant
    # checkpoint path — the run must survive (degrade-to-memory), and
    # once the filler is gone, recovery must audit the seeded state.
    ./target/release/examples/shared_runtime --store "$ENOSPC_DIR/table.d" \
        > /dev/null 2>&1 || { umount "$ENOSPC_DIR"; exit 1; }
    dd if=/dev/zero of="$ENOSPC_DIR/filler" bs=1k count=300 2>/dev/null || true
    ./target/release/examples/shared_runtime --store "$ENOSPC_DIR/table.d" \
        --chaos-fs 0 --repeat 3 > /dev/null 2>&1 || {
        echo "run on a full tmpfs must not fail hard"
        umount "$ENOSPC_DIR"; exit 1
    }
    rm -f "$ENOSPC_DIR/filler"
    ./target/release/examples/shared_runtime --store "$ENOSPC_DIR/table.d" \
        --verify-recovery > /dev/null || { umount "$ENOSPC_DIR"; exit 1; }
    umount "$ENOSPC_DIR"
    echo "    ENOSPC smoke passed"
else
    echo "    tmpfs mount unavailable; skipped"
fi

echo "==> decide-path budget: perfbench reuse-hot lanes within fixed bounds"
# Bounds: the paper's 1 us per alpha decision; record/apply at 5x their
# first measured medians (115 / 119 ns). The last stdout line is the
# result JSON.
PERF_LINE=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload reuse-hot --seed 7 --seconds 1 --trace 1 | tail -n 1)
echo "$PERF_LINE" | jq -e '
    def lane(k): .metrics[k].value // error("missing lane " + k);
    .correct == true and .failed == 0
    and lane("eas.decide_alpha.ns.p50") <= 1000
    and lane("ring.record.ns.p50") <= 575
    and lane("fleet.replica_apply.ns.p50") <= 595' > /dev/null || {
    echo "perfbench budget exceeded:"
    echo "$PERF_LINE" | jq '{correct, failed,
        decide: .metrics["eas.decide_alpha.ns.p50"].value,
        record: .metrics["ring.record.ns.p50"].value,
        apply: .metrics["fleet.replica_apply.ns.p50"].value}'
    exit 1
}

echo "==> perfbench: the benchmark builds against the public API, unit tests pass"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> rustdoc -D warnings: every intra-doc link resolves"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy: no print!/eprintln! in library crates"
for p in easched-num easched-sim easched-graph easched-kernels \
         easched-runtime easched-core easched-telemetry easched-replay \
         easched-fleet easched-bench easched; do
    cargo clippy -q -p "$p" --lib -- -D warnings \
        -D clippy::print_stdout -D clippy::print_stderr
done

echo "CI green."
