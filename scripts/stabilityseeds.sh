#!/bin/sh
# stabilityseeds.sh — sweep the control-loop stability spec over fixed seeds.
# `pamctl run stability` exits non-zero when the run misses the spec's
# expectation (scenario.Result.Check: no element ping-pongs between devices
# within the bounce horizon, the detector fires, the hover tenant's Logger is
# pushed aside and the episode reaches relief), so this loop fails loudly if
# a detector or reclaim change destabilizes the loop on any seed. CI runs it
# next to the -race stability tests; the seeds match
# internal/scenario/run_test.go.
set -eu
seeds="${1:-1 2 3}"
for s in $seeds; do
	echo "=== stability seed $s ==="
	go run ./cmd/pamctl -engine emul -seed "$s" run stability
done
echo "=== all seeds stable ==="
