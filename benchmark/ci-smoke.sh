#!/usr/bin/env bash
# Smoke test of the benchmark for a CI job: unit tests, every workload
# for a fraction of a second (outputs still checked against the oracle),
# one traced run, and the self-check that the correctness gate bites.
# Exits non-zero on any mismatch. Takes about a minute after the build.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

cargo test --release --offline --quiet --manifest-path "$manifest"
for workload in serve-distinct serve-hot serve-open-mixed solo-shared \
    engine-wave-seq engine-wave-des parse-newswire-seq parse-newswire-des; do
    bench --workload "$workload" --seed 1 --smoke | tail -n 1
done
bench --workload serve-hot --seed 1 --smoke --trace | tail -n 1
bench --self-check
