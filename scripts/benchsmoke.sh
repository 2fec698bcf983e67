#!/bin/sh
# benchsmoke.sh — run the perf-trajectory bench smoke and write the
# machine-readable artifact to the path given as $1 (default bench_current.json).
#
# This is the single definition of "the smoke": CI runs it to produce the
# artifact it diffs against the checked-in BENCH.json baseline, and a
# baseline refresh is the same script pointed at the baseline itself:
#
#	./scripts/benchsmoke.sh BENCH.json   # refresh the checked-in baseline
#
# The emulation benches average 10 iterations and the whole smoke repeats
# 3 times (-count=3): single iterations of a wall-clock emulation on a
# shared runner swing by 2×, so the artifact carries all three samples and
# benchdiff ratchets best-of-3 against best-of-3. The gate micro-benchmark
# runs a fixed 2M iterations so its frames/s is measured over tens of
# milliseconds, not one 20 ns call. The multi-tenant tenancy sweep likewise
# runs a fixed 50k frames per sample: its guarded metrics (frames/s and
# perchain_Gbps at each chain count — the tenancy-collapse regression guard)
# measure steady-state dataplane throughput, which 10 frames cannot reach —
# at 10 iterations the number is the worker wake-up latency, not the rate.
set -eu
out="${1:-bench_current.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp" "$tmp.json"' EXIT

# The numbers below only mean anything if the hot paths stayed
# allocation-free: gate on pamlint (its escape check reads the compiler's
# escape analysis) before spending minutes benchmarking a dataplane that
# now mallocs per frame.
go run ./cmd/pamlint ./...

go test -run xxx -bench='^BenchmarkDataplane$|MultiChainSelect|SharedDeviceContention|PCIeDMAContention' \
	-benchtime=10x -count=3 -benchmem . | tee "$tmp"
go test -run xxx -bench='MultiTenantDataplane' -benchtime=50000x -count=3 -benchmem . | tee -a "$tmp"
go test -run xxx -bench='GateContention' -benchtime=2000000x -count=3 -benchmem ./internal/emul/ | tee -a "$tmp"
# The fleet-tier planning cost: a full rebalance of a skewed 64-tenant,
# 4-server registry. Pure coordinator-side arithmetic (no dataplane), so a
# fixed 1000 iterations measures steady-state planning rate without
# wall-clock noise.
go test -run xxx -bench='FleetRebalance' -benchtime=1000x -count=3 -benchmem ./internal/fleet/ | tee -a "$tmp"
# Parse to a scratch file first: a failed parse must not truncate a baseline
# being refreshed in place.
go run ./cmd/benchdiff -parse < "$tmp" > "$tmp.json"
mv "$tmp.json" "$out"
