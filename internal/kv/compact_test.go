package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// sizedVal is key's value at version v, padded to n bytes.
func sizedVal(key string, v, n int) []byte {
	b := bytes.Repeat([]byte{'.'}, n)
	copy(b, fmt.Sprintf("%s/v%d/", key, v))
	return b
}

// checkLanded asserts that the index engine and the store's accounting
// agree on every key of want, and that the record at each key's Loc is a
// valid record of that key holding want's value.
func checkLanded(t *testing.T, s *Store, now sim.Time, want map[string][]byte) {
	t.Helper()
	hdr := make([]byte, headerSize)
	var payload []byte
	for key, val := range want {
		l, ok, _, err := s.eng.Lookup(now, key)
		if err != nil || !ok {
			t.Fatalf("engine Lookup(%s) = %v %v", key, ok, err)
		}
		if acct := s.acct[key]; l != acct {
			t.Fatalf("engine holds %s -> %+v, accounting %+v", key, l, acct)
		}
		sg, ok := s.segs[l.Seg]
		if !ok {
			t.Fatalf("%s points at missing segment %d", key, l.Seg)
		}
		h, p, _, ok := s.tryRecordAt(now, sg, l.Off, hdr, &payload)
		if !ok || h.tombstone {
			t.Fatalf("no valid record of %s at %+v", key, l)
		}
		if string(p[:h.keyLen]) != key || !bytes.Equal(p[h.keyLen:], val) || int(l.ValLen) != len(val) {
			t.Fatalf("record at %+v holds %q, want %s with its latest value", l, p[:h.keyLen], key)
		}
	}
}

// checkReopen closes s, reopens the log and asserts it recovers exactly
// want.
func checkReopen(t *testing.T, s *Store, be Backend, cfg Config, now sim.Time, want map[string][]byte) *Store {
	t.Helper()
	now, err := s.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	s2, now, err := Open(now, be, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
	checkLanded(t, s2, now, want)
	return s2
}

// put writes key = val into s and want.
func put(t *testing.T, s *Store, now sim.Time, want map[string][]byte, key string, val []byte) sim.Time {
	t.Helper()
	now, err := s.Put(now, key, val)
	if err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
	want[key] = val
	return now
}

// TestCompactionRefusesDamagedRecord flips one value bit of a live record
// in a sealed segment. Compaction must not launder it into a freshly
// checksummed copy: the pass stops with an error, the records it already
// moved stay consistent in the log and the engine, the segment is never
// picked again, and a reopen still skips the damaged record.
func TestCompactionRefusesDamagedRecord(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := Config{SegmentBytes: 4 << 10, Index: index.Config{Kind: index.BTree, NodeBytes: 256}}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	want := make(map[string][]byte)
	key := func(i int) string { return fmt.Sprintf("v-%03d", i) }
	for i := 0; i < 120; i++ {
		now = put(t, s, now, want, key(i), testVal(key(i), 0))
	}
	victim := s.order[0]
	var live []string // the victim's live keys after the overwrites, in log order
	for i := 0; i < 120; i++ {
		if s.acct[key(i)].Seg != victim {
			continue
		}
		if i%4 == 0 {
			live = append(live, key(i))
		} else {
			now = put(t, s, now, want, key(i), testVal(key(i), 1))
		}
	}
	if sg := s.pickVictim(); sg == nil || sg.id != victim {
		t.Fatalf("setup: segment %d is not the compaction victim", victim)
	}
	bad := live[len(live)/2]
	flipBit(t, be, s.segs[victim].name, s.acct[bad].Off+valueOffset(bad)+2, 4)

	_, now, err := s.MaintenanceTick(now)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("MaintenanceTick over a damaged record = %v, want a corruption error", err)
	}
	sg, ok := s.segs[victim]
	if !ok || !sg.damaged {
		t.Fatalf("damaged segment %d removed or unmarked", victim)
	}
	if s.Stats().Compactions != 0 {
		t.Fatalf("Compactions = %d, want 0", s.Stats().Compactions)
	}
	delete(want, bad)
	// Records before the damage moved, records after it stayed, and the
	// engine agrees with the accounting on all of them.
	for i, k := range live {
		moved := s.acct[k].Seg != victim
		if k != bad && moved != (i < len(live)/2) {
			t.Fatalf("%s (live record %d of %d) moved=%v; only records before the damage move", k, i, len(live), moved)
		}
	}
	checkLanded(t, s, now, want)

	// The damaged segment is passed over from now on.
	if _, now, err = s.MaintenanceTick(now); err != nil {
		t.Fatalf("second MaintenanceTick: %v (damaged segment picked again)", err)
	}
	if _, ok := s.segs[victim]; !ok {
		t.Fatal("damaged segment compacted on the second tick")
	}

	// The damaged record was never re-appended: a reopen skips it and
	// finds no other copy.
	s2 := checkReopen(t, s, be, cfg, now, want)
	if st := s2.Stats(); st.CorruptSkips != 1 {
		t.Fatalf("CorruptSkips after reopen = %d, want 1", st.CorruptSkips)
	}
	if _, _, err := s2.Get(now, bad, nil); err != ErrNotFound {
		t.Fatalf("Get(%s) after reopen = %v, want ErrNotFound", bad, err)
	}
}

// TestCompactionRunCrossesRotation moves more live bytes than the active
// segment has room for: the pending run is written, the segment rotates,
// and the rest of the records land in the next one.
func TestCompactionRunCrossesRotation(t *testing.T) {
	t.Parallel()
	for _, kind := range index.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			be := testBackend(t, false)
			cfg := Config{SegmentBytes: 4 << 10, CompactMinDeadFrac: 0.3, Index: index.Config{Kind: kind, NodeBytes: 256}}
			s := testStore(t, be, cfg)
			now := sim.Time(0)
			want := make(map[string][]byte)
			for i := 0; i < 80; i++ {
				k := fmt.Sprintf("r-%03d", i)
				now = put(t, s, now, want, k, testVal(k, 0))
			}
			victim := s.order[0]
			for i := 0; i < 80; i++ {
				if k := fmt.Sprintf("r-%03d", i); s.acct[k].Seg == victim && i%5 < 2 {
					now = put(t, s, now, want, k, testVal(k, 1))
				}
			}
			// Fill the active segment so the victim's live bytes overflow it.
			for i := 0; s.cfg.SegmentBytes-s.active.tail > s.segs[victim].live/2; i++ {
				k := fmt.Sprintf("f-%03d", i)
				now = put(t, s, now, want, k, testVal(k, 0))
			}
			if sg := s.pickVictim(); sg == nil || sg.id != victim {
				t.Fatalf("setup: segment %d is not the compaction victim", victim)
			}
			rotations := s.Stats().Rotations
			did, now, err := s.MaintenanceTick(now)
			if err != nil || !did {
				t.Fatalf("MaintenanceTick = %v, %v", did, err)
			}
			if s.Stats().Rotations == rotations {
				t.Fatal("compaction did not rotate: the run never crossed a segment boundary")
			}
			dest := make(map[uint32]bool)
			for _, u := range s.ups {
				dest[u.Loc.Seg] = true
			}
			if len(dest) < 2 {
				t.Fatalf("moved records landed in %d segment(s), want 2", len(dest))
			}
			checkLanded(t, s, now, want)
			checkReopen(t, s, be, cfg, now, want)
		})
	}
}

// TestCompactionRecordLargerThanChunk compacts a segment holding a record
// larger than the read chunk, between small records that straddle chunk
// boundaries: the read window grows to hold it and the run writes it whole.
func TestCompactionRecordLargerThanChunk(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := Config{SegmentBytes: 256 << 10, Index: index.Config{Kind: index.BTree}}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	want := make(map[string][]byte)
	small := func(i int) string { return fmt.Sprintf("s-%03d", i) }
	for i := 0; i < 100; i++ {
		now = put(t, s, now, want, small(i), sizedVal(small(i), 0, 1000))
	}
	now = put(t, s, now, want, "big", sizedVal("big", 0, compactChunk+compactChunk/2))
	for i := 100; i < 150; i++ {
		now = put(t, s, now, want, small(i), sizedVal(small(i), 0, 1000))
	}
	victim := s.order[0]
	if l := s.acct["big"]; l.Seg != victim || l.Off%compactChunk == 0 {
		t.Fatalf("setup: big record at %+v does not start mid-chunk in the first segment", l)
	}
	for i := 0; i < 150; i++ {
		if i%6 != 0 {
			now = put(t, s, now, want, small(i), sizedVal(small(i), 1, 1000))
		}
	}
	if sg := s.pickVictim(); sg == nil || sg.id != victim {
		t.Fatalf("setup: segment %d is not the compaction victim", victim)
	}
	did, now, err := s.MaintenanceTick(now)
	if err != nil || !did {
		t.Fatalf("MaintenanceTick = %v, %v", did, err)
	}
	if _, ok := s.segs[victim]; ok {
		t.Fatal("victim segment survived compaction")
	}
	if s.acct["big"].Seg == victim {
		t.Fatal("big record did not move")
	}
	checkLanded(t, s, now, want)
	checkReopen(t, s, be, cfg, now, want)
}

// TestCompactAllocs pins compaction's allocations: at most one per moved
// record (its key string) plus a constant for the segment it removes, so
// no per-record buffer can creep into the pass.
func TestCompactAllocs(t *testing.T) {
	for _, kind := range []index.Kind{index.Hash, index.BTree} {
		t.Run(string(kind), func(t *testing.T) {
			s, keys, now := compactStore(t, kind)
			var err error
			// Warm up: the first rounds size the read window, the run and
			// the update list.
			for i := 0; i < 3; i++ {
				now = dirtyVictim(t, s, keys, now, i)
				if now, err = s.compact(now, s.pickVictim()); err != nil {
					t.Fatal(err)
				}
			}
			now = dirtyVictim(t, s, keys, now, 3)
			victim := s.pickVictim()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if now, err = s.compact(now, victim); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			moved := len(s.ups)
			allocs := int(after.Mallocs - before.Mallocs)
			t.Logf("compaction moved %d records with %d allocations", moved, allocs)
			const fixed = 16 // segment removal and any rotation's new segment
			if moved < 100 || allocs > moved+fixed {
				t.Fatalf("compaction moving %d records made %d allocations, want at most %d", moved, allocs, moved+fixed)
			}
		})
	}
}
