package kv

import (
	"fmt"
	"testing"

	"pipette/internal/index"
	"pipette/internal/sim"
)

const benchRecords = 4000

// benchStore loads benchRecords keys into a fine-read store over the test
// stack with the given index engine, returning the store, its keys and
// the clock after the load.
func benchStore(b *testing.B, kind index.Kind) (*Store, []string, sim.Time) {
	b.Helper()
	s := testStore(b, testBackend(b, true), Config{FineReads: true, Index: index.Config{Kind: kind}})
	keys := make([]string, benchRecords)
	now := sim.Time(0)
	var err error
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i*7919%benchRecords)
		if now, err = s.Put(now, keys[i], testVal(keys[i], 0)); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys, now
}

// BenchmarkGet is one exact-length Get of a present key per index engine:
// the engine's lookup plus the value read through the simulated stack.
func BenchmarkGet(b *testing.B) {
	for _, kind := range index.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			s, keys, now := benchStore(b, kind)
			var buf []byte
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, now, err = s.Get(now, keys[i%len(keys)], buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPut is one overwrite Put per index engine, with a maintenance
// tick and a sync every 256 puts so compaction keeps the log bounded.
func BenchmarkPut(b *testing.B) {
	for _, kind := range index.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			s, keys, now := benchStore(b, kind)
			val := testVal("overwrite", 1)
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if now, err = s.Put(now, keys[i%len(keys)], val); err != nil {
					b.Fatal(err)
				}
				if i%256 == 255 {
					if _, now, err = s.MaintenanceTick(now); err != nil {
						b.Fatal(err)
					}
					if now, err = s.Sync(now); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// compactStore loads a store for the compaction benchmark and allocation
// pin. Its page cache holds the whole log, so the stack below allocates
// nothing for evictions and what is measured is compaction's own cost.
func compactStore(tb testing.TB, kind index.Kind) (*Store, []string, sim.Time) {
	tb.Helper()
	be := testBackendCache(tb, false, 4096)
	s := testStore(tb, be, Config{SegmentBytes: 128 << 10, Index: index.Config{Kind: kind}})
	keys := make([]string, 2000)
	now := sim.Time(0)
	var err error
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i*7919%len(keys))
		if now, err = s.Put(now, keys[i], testVal(keys[i], 0)); err != nil {
			tb.Fatal(err)
		}
	}
	return s, keys, now
}

// dirtyVictim overwrites keys, in a round-dependent order, until a sealed
// segment is dead enough to compact.
func dirtyVictim(tb testing.TB, s *Store, keys []string, now sim.Time, round int) sim.Time {
	tb.Helper()
	var err error
	for i := 0; s.pickVictim() == nil; i++ {
		k := keys[(i*3+round*101)%len(keys)]
		if now, err = s.Put(now, k, testVal(k, round+1)); err != nil {
			tb.Fatal(err)
		}
	}
	return now
}

// BenchmarkCompact is one compaction of a dead-heavy sealed segment per
// index engine: the sequential read pass, the run appends and the sorted
// repoint. The overwrites that make the next victim run untimed.
func BenchmarkCompact(b *testing.B) {
	for _, kind := range index.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			s, keys, now := compactStore(b, kind)
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				now = dirtyVictim(b, s, keys, now, i)
				b.StartTimer()
				if now, err = s.compact(now, s.pickVictim()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
