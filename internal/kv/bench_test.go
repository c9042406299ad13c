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
