#!/usr/bin/env sh
# Local CI gate: formatting, build, tests, lint pass.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy incompatible_msrv (no std API newer than the declared rust-version)"
cargo clippy --workspace --all-targets -- -A clippy::all -D clippy::incompatible_msrv

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -p cloudchar-core --test claims"
cargo test -q -p cloudchar-core --test claims

echo "==> cargo test -p cloudchar-core --test scenarios"
cargo test -q -p cloudchar-core --test scenarios

echo "==> repro sweep smoke (--sweep 2 --jobs 2)"
cargo run --release -p cloudchar-bench --bin repro -- --fast ratios --sweep 2 --jobs 2 > /dev/null

echo "==> repro audit of the fault scenarios (exits 1 on any invariant violation)"
cargo run --release -p cloudchar-bench --bin repro -- --audit --fast scenarios > /dev/null

echo "==> repro audit of a single-host online run (exits 1 on any invariant violation)"
cargo run --release -p cloudchar-bench --bin repro -- --audit --fast --online run > /dev/null

echo "==> repro audit of a single-host traced run (exits 1 on any invariant violation)"
trace_dir=$(mktemp -d)
cargo run --release -p cloudchar-bench --bin repro -- --audit --fast --trace-out "$trace_dir" run > /dev/null
rm -rf "$trace_dir"

echo "==> repro fig1-8 + characterize --full: resident and out-of-core output identical"
# Run in a scratch directory so the repo's results/ is left alone.
ooc_dir=$(mktemp -d)
root=$(pwd)
repro_ooc() {
    (cd "$ooc_dir/$1" && shift && cargo run -q --release --manifest-path "$root/Cargo.toml" \
        -p cloudchar-bench --bin repro -- --fast "$@" \
        fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 characterize --full > stdout.txt)
}
mkdir "$ooc_dir/resident" "$ooc_dir/traced"
repro_ooc resident
repro_ooc traced --trace-out "$ooc_dir/traces"
for csv in "$ooc_dir"/resident/results/fig*.csv; do
    cmp "$csv" "$ooc_dir/traced/results/$(basename "$csv")"
done
diff "$ooc_dir/resident/stdout.txt" "$ooc_dir/traced/stdout.txt"
rm -rf "$ooc_dir"

echo "==> repro audit of the fleet pod pipeline under db-crash (exits 1 on any invariant violation)"
cargo run --release -p cloudchar-bench --bin repro -- --audit fleet --hosts 13 --jobs 2 --faults db-crash > /dev/null

echo "==> repro fault-plan round-trip smoke"
cargo run --release -p cloudchar-bench --bin repro -- fault-roundtrip > /dev/null

echo "==> store bench smoke (columnar must not trail the keyed baseline)"
cargo bench -p cloudchar-bench --bench store -- --smoke

echo "==> analysis bench smoke (FFT+prefix path must not trail the naive engine)"
cargo bench -p cloudchar-bench --bench analysis -- --smoke

echo "==> clients bench smoke (cohort wheel: >=10x fewer generator events per tick at 100k)"
cargo bench -p cloudchar-bench --bench clients -- --smoke

echo "==> shard bench smoke (jobs=4 fingerprint == jobs=1, >1.5x critical-path headroom)"
cargo bench -p cloudchar-bench --bench shard -- --smoke

echo "==> trace bench smoke (>=4x compression, round-trip fingerprint, out-of-core fig CSVs byte-equal)"
cargo bench -p cloudchar-bench --bench trace -- --smoke

echo "==> online bench smoke (incremental per-tick update >=10x batch recompute at W=600, 1e-9 oracle parity)"
cargo bench -p cloudchar-bench --bench online -- --smoke

echo "==> fleet smoke (100k-client cohort run, release, wall-clock budget)"
fleet_start=$(date +%s%N)
cargo test -q --release -p cloudchar-core --test fleet
fleet_end=$(date +%s%N)
fleet_ms=$(( (fleet_end - fleet_start) / 1000000 ))
echo "fleet wall-clock: ${fleet_ms}ms (budget 60000ms)"
[ "$fleet_ms" -lt 60000 ] || {
    echo "ci.sh: fleet smoke exceeded its 60s wall-clock budget" >&2
    exit 1
}

echo "==> repro fleet-scale smoke (--fast --clients 100000 ratios)"
cargo run --release -p cloudchar-bench --bin repro -- --fast --clients 100000 ratios > /dev/null

echo "==> e2ebench self-test (seed-42 pins per workload, pinned-fingerprint negative case)"
python3 e2ebench/selftest.py

echo "==> cargo run -p cloudchar-lint -- --json (schema + wall-clock budget)"
lint_start=$(date +%s%N)
lint_json=$(cargo run --release -p cloudchar-lint -- --json)
lint_end=$(date +%s%N)
echo "$lint_json"
# The report layout is versioned: refuse to consume an unknown schema.
echo "$lint_json" | grep -q '"schema":2' || {
    echo "ci.sh: lint JSON schema mismatch (want \"schema\":2)" >&2
    exit 1
}
# Per-rule counts must be present for every rule (zeros included).
for rule in CL001 CL002 CL003 CL004 CL005 CL006 CL007 CL008 CL009 CL010 CL011 CL012 CL013 CL014 CL015; do
    echo "$lint_json" | grep -q "\"$rule\":" || {
        echo "ci.sh: lint JSON missing per-rule count for $rule" >&2
        exit 1
    }
done
echo "$lint_json" | grep -q '"stale_suppressions":\[\]' || {
    echo "ci.sh: stale suppression entries present" >&2
    exit 1
}
# Whole-workspace lint (including the cargo-run shim) must stay under 2s
# so it remains cheap enough to gate every commit.
lint_ms=$(( (lint_end - lint_start) / 1000000 ))
echo "lint wall-clock: ${lint_ms}ms (budget 2000ms)"
[ "$lint_ms" -lt 2000 ] || {
    echo "ci.sh: lint pass exceeded its 2s wall-clock budget" >&2
    exit 1
}

echo "==> ci.sh: all gates passed"
