//go:build race

package scenario_test

// raceInstrumented reports whether this test binary was built with the race
// detector. The live closed-loop scenarios are wall-clock physics on
// ~25 ms sampling windows; race instrumentation slows the dataplane's
// compute by roughly an order of magnitude, which stretches windows and
// lumps burst completions until per-window delivered-throughput readings
// stop being meaningful (a squeezed tenant can read above its offered
// rate in a catch-up window). Tests use this to keep every structural
// assertion — migrations, plans, placements, demand detection, relief —
// while skipping only the fine-grained per-tenant throughput bounds that
// the non-race run asserts precisely.
const raceInstrumented = true
