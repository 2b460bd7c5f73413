package par

// Tests for the flight-recorder attribution in the pool: results must be
// bit-identical with and without a recorder at every worker count, the
// busy/wait/wall identity must hold exactly, and the chunk accounting must
// be deterministic (same totals every run).

import (
	"math"
	"testing"

	"kshape/internal/obs"
)

// withRecorder installs a fresh recorder around fn and returns it for
// inspection. The previous recorder (always nil in these tests) is
// restored afterward.
func withRecorder(t *testing.T, fn func()) *obs.Recorder {
	t.Helper()
	r := obs.NewRecorder(1 << 12)
	prev := obs.SetRecorder(r)
	defer obs.SetRecorder(prev)
	fn()
	return r
}

var attrWorkerCounts = []int{1, 2, 8}

func TestResultsBitIdenticalWithRecorder(t *testing.T) {
	const n = 500
	term := func(i int) float64 { return math.Sin(float64(i)) / (1 + float64(i%7)) }

	wantOut := make([]float64, n)
	For(1, n, func(i int) { wantOut[i] = term(i) * 2 })

	for _, w := range attrWorkerCounts {
		for _, recorded := range []bool{false, true} {
			run := func() {
				out := make([]float64, n)
				For(w, n, func(i int) { out[i] = term(i) * 2 })
				for i := range out {
					if out[i] != wantOut[i] {
						t.Errorf("workers=%d recorded=%v: For output differs at %d", w, recorded, i)
						break
					}
				}
			}
			if recorded {
				withRecorder(t, run)
			} else {
				run()
			}
		}
	}
}

func TestWorkerAttributionIdentity(t *testing.T) {
	const n = 300
	for _, w := range attrWorkerCounts {
		rec := withRecorder(t, func() {
			ForChunksMin(w, n, 1, func(lo, hi int) {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += math.Sqrt(float64(i))
				}
				_ = s
			})
		})
		rep := rec.Report("par_test", "", nil, obs.Counters{})
		if len(rep.Workers) == 0 {
			t.Fatalf("workers=%d: no attribution rows", w)
		}
		if len(rep.Workers) > w {
			t.Errorf("workers=%d: %d attribution rows", w, len(rep.Workers))
		}
		var items, chunks int64
		for _, ws := range rep.Workers {
			if ws.BusyNS+ws.WaitNS != ws.WallNS {
				t.Errorf("workers=%d worker %d: busy %d + wait %d != wall %d",
					w, ws.Worker, ws.BusyNS, ws.WaitNS, ws.WallNS)
			}
			if ws.BusyNS < 0 || ws.WaitNS < 0 {
				t.Errorf("workers=%d worker %d: negative attribution", w, ws.Worker)
			}
			items += ws.Items
			chunks += ws.Chunks
		}
		if items != n {
			t.Errorf("workers=%d: attributed %d items, want %d", w, items, n)
		}
		wantChunks := int64(chunkCount(w, n, 1))
		if chunks != wantChunks {
			t.Errorf("workers=%d: attributed %d chunks, want %d", w, chunks, wantChunks)
		}
	}
}

// chunkCount mirrors ForChunksMin's chunking arithmetic with a recorder
// armed, when the full logical pool runs.
func chunkCount(w, n, floor int) int {
	if n <= 0 {
		return 0
	}
	if Resolve(w) == 1 {
		return 1
	}
	return min(Resolve(w)*chunksPerWorker, n, max(n/floor, 1))
}

func TestChunkEventsCoverRangeExactly(t *testing.T) {
	const n = 257
	for _, w := range attrWorkerCounts {
		rec := withRecorder(t, func() {
			ForChunksMin(w, n, 1, func(lo, hi int) {})
		})
		covered := make([]int, n)
		events := 0
		for _, e := range rec.Report("par_test", "", nil, obs.Counters{}).Events {
			if e.Kind != obs.EventChunk.String() {
				continue
			}
			events++
			if e.DurNS < 0 || e.AtNS < 0 {
				t.Errorf("workers=%d: chunk event with negative span (%d, %d)", w, e.AtNS, e.DurNS)
			}
			for i := e.Lo; i < e.Hi; i++ {
				covered[i]++
			}
		}
		if events != chunkCount(w, n, 1) {
			t.Errorf("workers=%d: %d chunk events, want %d", w, events, chunkCount(w, n, 1))
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", w, i, c)
			}
		}
	}
}

func TestSerialPathAttributesWorkerZero(t *testing.T) {
	const n = 64
	rec := withRecorder(t, func() {
		ForChunksMin(1, n, 1, func(lo, hi int) {})
	})
	rep := rec.Report("par_test", "", nil, obs.Counters{})
	if len(rep.Workers) != 1 || rep.Workers[0].Worker != 0 {
		t.Fatalf("serial path attribution rows = %+v, want exactly worker 0", rep.Workers)
	}
	if rep.Workers[0].Items != n || rep.Workers[0].Chunks != 1 {
		t.Errorf("serial attribution = %+v, want 1 chunk of %d items", rep.Workers[0], n)
	}
	if rep.Workers[0].WaitNS != 0 {
		t.Errorf("serial path recorded wait %dns, want 0", rep.Workers[0].WaitNS)
	}
}
