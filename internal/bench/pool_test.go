package bench

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipette/internal/workload"
)

func TestPoolRunsAllCells(t *testing.T) {
	t.Parallel()
	var ran int64
	var cells []Cell
	for i := 0; i < 37; i++ {
		cells = append(cells, Cell{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func() (*Result, error) {
				atomic.AddInt64(&ran, 1)
				return nil, nil
			},
		})
	}
	p := NewPool(8)
	if err := p.RunCells(cells); err != nil {
		t.Fatal(err)
	}
	if ran != 37 {
		t.Fatalf("ran %d cells, want 37", ran)
	}
	if got := len(p.Perf()); got != 37 {
		t.Fatalf("perf records %d, want 37", got)
	}
}

func TestPoolReturnsFirstErrorInOrder(t *testing.T) {
	t.Parallel()
	errA := errors.New("a")
	errB := errors.New("b")
	cells := []Cell{
		{Label: "ok", Run: func() (*Result, error) { return nil, nil }},
		{Label: "first", Run: func() (*Result, error) { return nil, errA }},
		{Label: "second", Run: func() (*Result, error) { return nil, errB }},
	}
	for _, p := range []*Pool{nil, NewPool(1), NewPool(4)} {
		if err := p.RunCells(cells); !errors.Is(err, errA) {
			t.Errorf("workers=%d: err = %v, want %v", p.Workers(), err, errA)
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	t.Parallel()
	var order []int
	var cells []Cell
	for i := 0; i < 5; i++ {
		i := i
		cells = append(cells, Cell{
			Label: fmt.Sprintf("c%d", i),
			Run: func() (*Result, error) {
				order = append(order, i) // no locking: serial execution is the contract
				return nil, nil
			},
		})
	}
	var p *Pool
	if err := p.RunCells(cells); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v not serial", order)
		}
	}
}

// TestParallelDeterminism is the harness's core correctness property under
// the worker pool: the same seed and suite produce byte-identical output at
// -j 1 and -j 8.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full harness passes")
	}
	t.Parallel()
	s := TinyScale()
	var serial, parallel bytes.Buffer
	if err := RunAll(&serial, s, NewPool(1)); err != nil {
		t.Fatal(err)
	}
	if err := RunAll(&parallel, s, NewPool(8)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		a, b := serial.String(), parallel.String()
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("output diverges at byte %d:\n-j1: %q\n-j8: %q", i, a[lo:i+80], b[lo:i+80])
			}
		}
		t.Fatalf("output lengths differ: %d vs %d", len(a), len(b))
	}
}

// TestExperimentDeterminism covers single experiments at different worker
// counts, cheap enough to run in -short mode.
func TestExperimentDeterminism(t *testing.T) {
	t.Parallel()
	exp, err := Find("fig8")
	if err != nil {
		t.Fatal(err)
	}
	s := TinyScale()
	var a, b bytes.Buffer
	if err := exp.Run(&a, s, nil); err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(&b, s, NewPool(8)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fig8 output differs between serial and -j 8:\n--- serial\n%s\n--- parallel\n%s", a.String(), b.String())
	}
}

// --- hot-path microbenchmarks ---------------------------------------------
// Track these with `go test -bench 'BenchmarkRun' -benchmem ./internal/bench`
// and compare revisions with benchstat.

func benchmarkRunEngine(b *testing.B, idx int) {
	b.Helper()
	s := TinyScale()
	e, err := newEngine(idx, s.stackConfig(s.FileSize()))
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[4] // E: all fine reads
	gen, err := workload.NewSynthetic(mix)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(e, gen, b.N, RunOpts{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunPipette measures per-request cost of the full harness loop on
// the Pipette engine (mix E: byte-granular reads).
func BenchmarkRunPipette(b *testing.B) { benchmarkRunEngine(b, 4) }

// BenchmarkRunBlockIO measures per-request cost on the conventional block
// engine.
func BenchmarkRunBlockIO(b *testing.B) { benchmarkRunEngine(b, 0) }

// TestPoolBudgetIsPoolWide submits cells from two concurrent RunCells calls
// on a 2-worker pool, as RunAll does with its experiment goroutines, and
// requires that no more than two cells were ever in flight at once.
func TestPoolBudgetIsPoolWide(t *testing.T) {
	t.Parallel()
	p := NewPool(2)
	var inFlight, peak atomic.Int64
	cells := func(prefix string) []Cell {
		var out []Cell
		for i := 0; i < 6; i++ {
			out = append(out, Cell{
				Label: fmt.Sprintf("%s-%d", prefix, i),
				Run: func() (*Result, error) {
					n := inFlight.Add(1)
					for {
						old := peak.Load()
						if n <= old || peak.CompareAndSwap(old, n) {
							break
						}
					}
					time.Sleep(2 * time.Millisecond) // hold the slot so cells overlap
					inFlight.Add(-1)
					return nil, nil
				},
			})
		}
		return out
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, prefix := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, prefix string) {
			defer wg.Done()
			errs[i] = p.RunCells(cells(prefix))
		}(i, prefix)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak %d cells in flight on a 2-worker pool", got)
	}
	if got := len(p.Perf()); got != 12 {
		t.Fatalf("perf records %d, want 12", got)
	}
}
