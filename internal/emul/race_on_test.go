//go:build race

package emul_test

// raceInstrumented reports whether this test binary was built with the race
// detector, under which sync.Pool deliberately sheds a quarter of its Puts:
// the frame pool then allocates ~0.25 buffers per frame that a regular
// build recycles, so allocation bounds are loosened by that much.
const raceInstrumented = true
