package ftl

import (
	"errors"
	"testing"

	"pipette/internal/nand"
	"pipette/internal/sim"
)

// benchFTL builds a moderately sized array and maps every logical page, so
// the translate/read paths run against a realistic L2P table.
func benchFTL(b *testing.B) *FTL {
	b.Helper()
	cfg := nand.DefaultConfig()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 2
	cfg.BlocksPerPlane = 16
	cfg.PagesPerBlock = 32
	arr, err := nand.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(arr, DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for lba := uint64(0); lba < f.LogicalPages(); lba++ {
		if err := f.Preload(LBA(lba)); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// BenchmarkFTLMap measures the L2P lookup alone: the flat mapping slice is
// the hot path of every device read and write.
func BenchmarkFTLMap(b *testing.B) {
	f := benchFTL(b)
	n := f.LogicalPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Translate(LBA(uint64(i) % n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTLReadInto measures a mapped page read into a caller buffer —
// translate + NAND timing + pattern fill, no allocation.
func BenchmarkFTLReadInto(b *testing.B) {
	f := benchFTL(b)
	n := f.LogicalPages()
	buf := make([]byte, f.PageSize())
	var now sim.Time
	b.SetBytes(int64(f.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := f.ReadInto(now, LBA(uint64(i)%n), buf)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// BenchmarkFTLWriteGC measures steady-state overwrites, which exercise
// allocation, invalidation, and the bitset-driven GC victim scan. GC is
// die-local, so per-die valid-page imbalance random-walks over hundreds of
// full-device churn cycles and can eventually leave one die unreclaimable;
// the benchmark resets the array (off the timer) when that happens.
func BenchmarkFTLWriteGC(b *testing.B) {
	f := benchFTL(b)
	n := f.LogicalPages()
	data := make([]byte, f.PageSize())
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := f.Write(now, LBA(uint64(i*7)%n), data)
		if errors.Is(err, ErrNoSpace) {
			b.StopTimer()
			f = benchFTL(b)
			n = f.LogicalPages()
			now = 0
			b.StartTimer()
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}
