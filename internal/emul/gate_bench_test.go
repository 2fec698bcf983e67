package emul

// Gate microbenchmarks: the shared device gate is crossed by every burst of
// every chain, so its uncontended grant cost bounds the whole dataplane.
// BenchmarkGateContention hammers ONE deviceGate from 1/4/16 workers with
// tiny bursts whose summed demand stays far below the budget — the gate is
// never token-limited, so the benchmark isolates the cost of the grant
// mechanism itself (the CAS fast path vs. the historic mutex+cond FIFO
// path). It is part of the CI bench smoke and the ratcheted BENCH.json
// trajectory.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
)

func BenchmarkGateContention(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			dg := newDeviceGate(device.KindSmartNIC)
			// 1 ns of device time per burst: even tens of millions of
			// grants per second demand well under the 1.0 device-second/s
			// refill, so every take is an uncontended-in-tokens grant.
			const cost = 1e-9
			per := b.N / workers
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						dg.take(cost)
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(per*workers)/time.Since(start).Seconds(), "frames/s")
		})
	}
}
