//go:build race

package emul

// RaceShedAllocs loosens per-frame allocation bounds in a test binary built
// with the race detector, under which sync.Pool deliberately sheds a quarter
// of its Puts. The frame pool's depot is a sync.Pool of magazines: a quarter
// of the full ones are dropped with their 32 buffers and re-made (0.25 × 33
// allocations per 32 frames), a quarter of the emptied ones too, and the
// collections those allocations trigger trim a little more (0.23–0.29
// measured).
const RaceShedAllocs = 0.35
