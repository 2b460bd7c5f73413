package obs_test

import (
	"sync"
	"testing"

	"kshape/internal/obs"
	"kshape/internal/par"
)

// TestCountersExactUnderParSubstrate drives the counters through the same
// par primitives the kernels use, with concurrent ReadCounters snapshots in
// flight — the exact interleaving a parallel clustering run produces. Run
// under -race this doubles as the data-race check for the obs/par pair;
// either way the final totals must be exact, not approximate.
func TestCountersExactUnderParSubstrate(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := obs.ReadCounters()

	const n = 20000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					// Snapshots taken mid-run must never panic or tear; the
					// values are monotone but otherwise unconstrained here.
					_ = obs.ReadCounters().Sub(before)
				}
			}
		}()
	}

	par.ForChunksMin(8, n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			obs.Inc(obs.CounterSBD)
			obs.Add(obs.CounterFFT, 2)
		}
	})
	par.For(8, n, func(i int) {
		obs.Inc(obs.CounterED)
	})
	close(stop)
	readers.Wait()

	got := obs.ReadCounters().Sub(before)
	if got.SBD != n {
		t.Errorf("SBD = %d, want %d", got.SBD, n)
	}
	if got.FFT != 2*n {
		t.Errorf("FFT = %d, want %d", got.FFT, 2*n)
	}
	if got.ED != n {
		t.Errorf("ED = %d, want %d", got.ED, n)
	}
}
