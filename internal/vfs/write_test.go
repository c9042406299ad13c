package vfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
)

// TestDirtyPageWriteAllocFree: once a page is dirty, sub-page and
// full-page writes to it patch the cache's buffer in place and allocate
// nothing.
func TestDirtyPageWriteAllocFree(t *testing.T) {
	v := testVFS(t, 64)
	f := createPreloaded(t, v, "data", 1<<20)
	full := make([]byte, 4096)
	small := make([]byte, 128)
	var now sim.Time
	write := func(data []byte, off int64) {
		_, done, err := f.WriteAt(now, data, off)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Dirty pages 3 and 4, and warm the pool.
	write(full, 3*4096)
	write(small, 4*4096+100)
	for _, tc := range []struct {
		name string
		data []byte
		off  int64
	}{
		{"sub-page", small, 3*4096 + 1000},
		{"page-straddling", small, 4*4096 - 64},
		{"full-page", full, 4 * 4096},
	} {
		if allocs := testing.AllocsPerRun(200, func() { write(tc.data, tc.off) }); allocs != 0 {
			t.Errorf("%s write to a dirty page: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	if got := v.PageCache().DirtyCount(); got != 2 {
		t.Fatalf("DirtyCount = %d, want 2", got)
	}
}

// TestWritePageCacheAccounting: a partial page makes exactly one counted
// lookup (a hit when resident), a full page makes none, and either way the
// page ends at the LRU front.
func TestWritePageCacheAccounting(t *testing.T) {
	v := testVFS(t, 64)
	f := createPreloaded(t, v, "data", 1<<20)
	pc := v.PageCache()
	var now sim.Time
	check := func(name string, data []byte, off int64, wantAccesses, wantHits uint64) {
		t.Helper()
		h0, a0, _, _ := pc.Stats()
		_, done, err := f.WriteAt(now, data, off)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		h1, a1, _, _ := pc.Stats()
		if a1-a0 != wantAccesses || h1-h0 != wantHits {
			t.Errorf("%s: +%d accesses +%d hits, want +%d/+%d", name, a1-a0, h1-h0, wantAccesses, wantHits)
		}
	}
	small, full := make([]byte, 100), make([]byte, 4096)
	check("partial miss", small, 10*4096+5, 1, 0)
	check("partial dirty", small, 10*4096+500, 1, 1)
	check("full dirty", full, 10*4096, 0, 0)
	check("full miss", full, 11*4096, 0, 0)
	// Pages 10 (partial, dirty), 11 and 12 (full), 13 (partial, absent).
	check("straddling", make([]byte, 3*4096), 10*4096+4000, 2, 1)
	// Make page 20 resident and clean, then write it.
	if _, _, err := f.ReadAt(now, small, 20*4096); err != nil {
		t.Fatal(err)
	}
	check("partial clean", small, 20*4096+7, 1, 1)

	// LRU position: a write moves its page to the front, so filling the
	// cache with 63 other pages must evict page 10 before page 11.
	if _, _, err := f.WriteAt(now, small, 11*4096+1); err != nil { // 11 now newer
		t.Fatal(err)
	}
	if _, _, err := f.WriteAt(now, full, 10*4096); err != nil { // 10 newest
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for p := int64(100); pc.Contains(pagecache.Key{File: f.Inode().Ino, Index: 11}); p++ {
		if !pc.Contains(pagecache.Key{File: f.Inode().Ino, Index: 10}) {
			t.Fatal("page 10 evicted before page 11: full-page write did not move it to the front")
		}
		if _, _, err := f.ReadAt(now, buf, p*4096); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteShadowDifferential writes random ranges — sub-page, full-page,
// multi-page — and checks every read against a shadow copy of the file,
// before and after Sync, at page cache capacities down to 1.
func TestWriteShadowDifferential(t *testing.T) {
	const size = 64 << 10
	for _, capacity := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			v := testVFS(t, capacity)
			f, err := v.Create("data", size, extfs.CreateOpts{Preload: true}, ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			shadow := oracle(t, v, f, 0, size)
			var now sim.Time
			readBack := func(off int64, n int) {
				t.Helper()
				buf := make([]byte, n)
				done, err := f.ReadFull(now, buf, off)
				if err != nil {
					t.Fatal(err)
				}
				now = done
				if !bytes.Equal(buf, shadow[off:off+int64(n)]) {
					t.Fatalf("read [%d,+%d) differs from the shadow copy", off, n)
				}
			}
			for op := 0; op < 600; op++ {
				var off int64
				var n int
				switch rng.Intn(4) {
				case 0: // sub-page
					off, n = rng.Int63n(size-200), 1+rng.Intn(200)
				case 1: // full page
					off, n = int64(rng.Intn(size/4096))*4096, 4096
				case 2: // multi-page, unaligned
					n = 4097 + rng.Intn(3*4096)
					off = rng.Int63n(size - int64(n))
				default: // multi-page, aligned
					n = 4096 * (2 + rng.Intn(3))
					off = int64(rng.Intn(size/4096-4)) * 4096
				}
				data := make([]byte, n)
				rng.Read(data)
				_, done, err := f.WriteAt(now, data, off)
				if err != nil {
					t.Fatal(err)
				}
				now = done
				copy(shadow[off:], data)
				readBack(rng.Int63n(size-5000), 1+rng.Intn(5000))
				if rng.Intn(50) == 0 {
					if now, err = f.Sync(now); err != nil {
						t.Fatal(err)
					}
				}
			}
			readBack(0, size)
			if _, err := f.Sync(now); err != nil {
				t.Fatal(err)
			}
			if v.PageCache().DirtyCount() != 0 {
				t.Fatalf("DirtyCount = %d after Sync", v.PageCache().DirtyCount())
			}
			if !bytes.Equal(oracle(t, v, f, 0, size), shadow) {
				t.Fatal("device content after Sync differs from the shadow copy")
			}
		})
	}
}

// BenchmarkWriteAtSubPage measures a 128 B write to a page that is
// resident and dirty (patched in place), resident and clean (read from
// the oracle into a pooled buffer), or absent (a timed block read first).
func BenchmarkWriteAtSubPage(b *testing.B) {
	const pages = 1024
	data := make([]byte, 128)
	b.Run("dirty-resident", func(b *testing.B) {
		v := testVFS(b, pages)
		f := createPreloaded(b, v, "data", pages*4096)
		now := sim.Time(0)
		for i := 0; i < b.N; i++ {
			_, done, err := f.WriteAt(now, data, int64(i%64)*4096+int64(i%32)*128)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
	})
	b.Run("clean-resident", func(b *testing.B) {
		v := testVFS(b, pages)
		f := createPreloaded(b, v, "data", pages*4096)
		buf := make([]byte, 4096)
		now := sim.Time(0)
		for p := int64(0); p < pages; p++ {
			if _, _, err := f.ReadAt(now, buf, p*4096); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%pages == 0 && i > 0 {
				b.StopTimer()
				var err error
				if now, err = f.Sync(now); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			_, done, err := f.WriteAt(now, data, int64(i%pages)*4096+256)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
	})
	b.Run("miss", func(b *testing.B) {
		v := testVFS(b, 64)
		f := createPreloaded(b, v, "data", pages*4096)
		now := sim.Time(0)
		for i := 0; i < b.N; i++ {
			_, done, err := f.WriteAt(now, data, int64(i%pages)*4096+256)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
	})
}

// BenchmarkReadAtHit measures a 128 B read served from a resident page.
func BenchmarkReadAtHit(b *testing.B) {
	v := testVFS(b, 256) // the whole file: read-ahead evicts nothing
	f := createPreloaded(b, v, "data", 1<<20)
	buf := make([]byte, 128)
	now := sim.Time(0)
	for p := int64(0); p < 64; p++ {
		if _, _, err := f.ReadAt(now, buf, p*4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, done, err := f.ReadAt(now, buf, int64(i%64)*4096+int64(i%32)*128)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
	b.StopTimer()
	if hits, accesses, _, _ := v.PageCache().Stats(); accesses-hits > 64 {
		b.Fatalf("%d of %d lookups missed", accesses-hits, accesses)
	}
}
