package metrics

import (
	"sync"
	"testing"
)

func TestBarrierCollectorConcurrentSums(t *testing.T) {
	var c BarrierCollector
	var wg sync.WaitGroup
	const workers, perWorker = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.AddKernel(BarrierSample{Epochs: 3, ComputeNS: 10, MergeNS: 5, Replayed: 7, Misses: 2})
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	n := int64(workers * perWorker)
	if s.Kernels != n || s.Epochs != 3*n || s.ComputeNS != 10*n || s.MergeNS != 5*n || s.Replayed != 7*n || s.Misses != 2*n {
		t.Fatalf("snapshot %+v, want multiples of %d", s, n)
	}
	if got := s.MergeSharePct(); got < 33.3 || got > 33.4 {
		t.Fatalf("MergeSharePct = %g, want ~33.33", got)
	}
}

func TestBarrierStatsZero(t *testing.T) {
	var s BarrierStats
	if got := s.MergeSharePct(); got != 0 {
		t.Fatalf("zero-stats MergeSharePct = %g, want 0", got)
	}
}
