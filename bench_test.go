package pipette

// Top-level benchmarks: one testing.B target per paper table/figure (run
// them with `go test -bench=. -benchmem`), plus micro-benchmarks of the
// public read paths. The figure/table benchmarks wrap the same harness
// cmd/pipette-bench uses, at the tiny scale so `go test -bench` stays
// snappy; use the command with -scale quick/full for headline numbers.

import (
	"io"
	"testing"

	"pipette/internal/bench"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// benchScale keeps -bench runs fast while preserving shapes.
func benchScale() bench.Scale { return bench.TinyScale() }

func runExperiment(b *testing.B, name string) {
	b.Helper()
	exp, err := bench.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := exp.Run(io.Discard, benchScale(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Table2 regenerates Figure 6 and Table 2 (synthetic mixes,
// uniform distribution).
func BenchmarkFig6Table2(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Table3 regenerates Figure 7 and Table 3 (synthetic mixes,
// zipfian distribution).
func BenchmarkFig7Table3(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (latency vs request size).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Table4 regenerates Figures 1 and 9 and Table 4 (real
// applications).
func BenchmarkFig9Table4(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkAblation runs the design-choice ablation sweep.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// --- public-API micro benchmarks ------------------------------------------

func benchSystem(b testing.TB, fineCache bool) *File {
	b.Helper()
	sys, err := New(Options{
		CapacityBytes:    512 << 20,
		PageCacheBytes:   32 << 20,
		FineCacheBytes:   8 << 20,
		DisableFineCache: !fineCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.CreateFile("bench.dat", 128<<20, true); err != nil {
		b.Fatal(err)
	}
	f, err := sys.Open("bench.dat", ReadWrite|FineGrained)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFineRead128Hot measures the full stack on cache-friendly 128 B
// reads (the paper's embedding-lookup shape).
func BenchmarkFineRead128Hot(b *testing.B) {
	f := benchSystem(b, true)
	buf := make([]byte, 128)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i%1024)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFineRead128Cold measures all-miss 128 B reads (every read runs
// the Constructor/Requester/Read-Engine path).
func BenchmarkFineRead128Cold(b *testing.B) {
	f := benchSystem(b, false)
	buf := make([]byte, 128)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i%30000)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockRead4K measures the conventional 4 KiB path.
func BenchmarkBlockRead4K(b *testing.B) {
	f := benchSystem(b, true)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i%30000)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadPathAllocFree pins the README's zero-allocation rows: steady-state
// cold 128 B fine reads and 4 KiB block reads allocate nothing per request.
func TestReadPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fineCache bool
		size      int
	}{
		{"FineRead128Cold", false, 128},
		{"BlockRead4K", true, 4096},
	} {
		f := benchSystem(t, tc.fineCache)
		buf := make([]byte, tc.size)
		i := 0
		read := func() {
			if _, err := f.ReadAt(buf, int64(i%30000)*4096); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for j := 0; j < 10000; j++ {
			read() // fill the page cache; warm pools and scratch buffers
		}
		if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkWrite4K measures page-aligned writes through the page cache.
func BenchmarkWrite4K(b *testing.B) {
	f := benchSystem(b, true)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(data, int64(i%8192)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingOverhead quantifies the cost of tracing on the full read
// stack. In the "off" case every layer reads the stack's shared
// Instruments, which hold the no-op tracer: one off span site costs a load
// of ins.Tracer plus an Enabled() call, while the stage account and
// resource tracker keep recording. Its reference is
// BenchmarkFineRead128Hot/nil in internal/baseline, the same hot loop on a
// stack whose layers hold nil Instruments; BenchmarkFineRead128Hot/
// instrumented there is the "off" stack without this facade's lock. The
// "on" case records every span and bounds the worst-case cost of
// -trace-out.
func BenchmarkTracingOverhead(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		f := benchSystem(b, true)
		if traced {
			f.sys.SetTracer(telemetry.NewRecorder())
		} else {
			f.sys.SetTracer(nil) // explicit no-op default
		}
		buf := make([]byte, 128)
		b.SetBytes(128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(buf, int64(i%1024)*4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkWorkloadGenerators measures request-generation overhead (it must
// be negligible next to simulated I/O).
func BenchmarkWorkloadGenerators(b *testing.B) {
	gens := map[string]workload.Generator{}
	syn, err := workload.NewSynthetic(workload.Mixes(1<<30, 4096, workload.Zipfian, 1)[3])
	if err != nil {
		b.Fatal(err)
	}
	gens["synthetic"] = syn
	reccfg := workload.DefaultRecommenderConfig()
	reccfg.TableBytes = 256 << 20
	rec, err := workload.NewRecommender(reccfg)
	if err != nil {
		b.Fatal(err)
	}
	gens["recommender"] = rec
	sgcfg := workload.DefaultSocialGraphConfig()
	sgcfg.Nodes = 1 << 18
	sg, err := workload.NewSocialGraph(sgcfg)
	if err != nil {
		b.Fatal(err)
	}
	gens["socialgraph"] = sg
	for name, gen := range gens {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = gen.Next()
			}
		})
	}
}

// BenchmarkSensitivity runs the arena-size sweep and search-engine
// experiments (beyond the paper).
func BenchmarkSensitivity(b *testing.B) { runExperiment(b, "sensitivity") }
