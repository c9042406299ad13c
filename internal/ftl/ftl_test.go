package ftl

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"pipette/internal/nand"
	"pipette/internal/sim"
)

func smallNAND(t testing.TB) *nand.Array {
	t.Helper()
	cfg := nand.DefaultConfig()
	cfg.Channels = 2
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 8
	a, err := nand.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func newFTL(t testing.TB, arr *nand.Array) *FTL {
	t.Helper()
	f, err := New(arr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func page(f *FTL, fill byte) []byte {
	b := make([]byte, f.PageSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestNewValidation(t *testing.T) {
	arr := smallNAND(t)
	if _, err := New(arr, Config{OverprovisionPct: 60, GCFreeBlockLow: 2}, nil); err == nil {
		t.Error("overprovision 60% accepted")
	}
	if _, err := New(arr, Config{OverprovisionPct: 7, GCFreeBlockLow: 0}, nil); err == nil {
		t.Error("GCFreeBlockLow 0 accepted")
	}
}

func TestExportedCapacity(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	total := arr.Config().TotalPages()
	if got := f.LogicalPages(); got >= total || got < total/2 {
		t.Fatalf("LogicalPages = %d, want in [%d, %d)", got, total/2, total)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFTL(t, smallNAND(t))
	data := page(f, 0xab)
	if _, err := f.Write(0, 5, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, _, err := f.Read(0, 5)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read != written")
	}
}

func TestReadUnmapped(t *testing.T) {
	f := newFTL(t, smallNAND(t))
	if _, _, err := f.Read(0, 3); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
	if f.IsMapped(3) {
		t.Fatal("IsMapped(3) = true for unwritten lba")
	}
}

func TestBadLBARejected(t *testing.T) {
	f := newFTL(t, smallNAND(t))
	big := LBA(f.LogicalPages())
	if _, err := f.Write(0, big, page(f, 1)); !errors.Is(err, ErrBadLBA) {
		t.Fatalf("Write err = %v", err)
	}
	if _, err := f.Translate(big); !errors.Is(err, ErrBadLBA) {
		t.Fatalf("Translate err = %v", err)
	}
	if err := f.Trim(big); !errors.Is(err, ErrBadLBA) {
		t.Fatalf("Trim err = %v", err)
	}
	if err := f.Preload(big); !errors.Is(err, ErrBadLBA) {
		t.Fatalf("Preload err = %v", err)
	}
	if _, err := f.Write(0, 0, []byte{1, 2, 3}); !errors.Is(err, ErrBadLength) {
		t.Fatalf("short write err = %v", err)
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	f := newFTL(t, smallNAND(t))
	if _, err := f.Write(0, 7, page(f, 1)); err != nil {
		t.Fatal(err)
	}
	old, _ := f.Translate(7)
	if _, err := f.Write(0, 7, page(f, 2)); err != nil {
		t.Fatal(err)
	}
	cur, _ := f.Translate(7)
	if cur == old {
		t.Fatal("overwrite did not relocate (in-place NAND update impossible)")
	}
	got, _, err := f.Read(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("read returned stale data %d", got[0])
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestStripingAcrossChannels(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	geo := arr.Config()
	// Sequential logical writes should land on distinct channels until all
	// channels are covered.
	seen := make(map[int]bool)
	for i := 0; i < geo.Channels; i++ {
		if _, err := f.Write(0, LBA(i), page(f, byte(i))); err != nil {
			t.Fatal(err)
		}
		ppa, _ := f.Translate(LBA(i))
		seen[geo.ChannelOf(ppa)] = true
	}
	if len(seen) != geo.Channels {
		t.Fatalf("sequential pages used %d/%d channels", len(seen), geo.Channels)
	}
}

func TestTrim(t *testing.T) {
	f := newFTL(t, smallNAND(t))
	if _, err := f.Write(0, 4, page(f, 9)); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(4); err != nil {
		t.Fatal(err)
	}
	if f.IsMapped(4) {
		t.Fatal("lba still mapped after trim")
	}
	if _, _, err := f.Read(0, 4); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read after trim err = %v", err)
	}
	// Trimming an unmapped lba is a no-op.
	if err := f.Trim(4); err != nil {
		t.Fatal(err)
	}
	if f.Stats().TrimmedPages != 1 {
		t.Fatalf("TrimmedPages = %d, want 1", f.Stats().TrimmedPages)
	}
}

func TestPreloadContent(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	for i := LBA(0); i < 10; i++ {
		if err := f.Preload(i); err != nil {
			t.Fatalf("Preload(%d): %v", i, err)
		}
	}
	// Content equals the NAND oracle for the mapped PPA.
	for i := LBA(0); i < 10; i++ {
		ppa, err := f.Translate(i)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, f.PageSize())
		nand.ExpectedContent(arr.Config().ContentSeed, f.PageSize(), ppa, 0, want)
		got, _, err := f.Read(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lba %d content mismatch", i)
		}
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	// Hammer a working set far beyond physical capacity in random order:
	// without GC this would exhaust the free pools, and the random order
	// leaves victims partially valid so GC must relocate.
	workingSet := f.LogicalPages() * 3 / 4
	writes := int(arr.Config().TotalPages()) * 3
	rng := sim.NewRNG(99)
	shadow := make(map[LBA]byte)
	var now sim.Time
	for i := 0; i < writes; i++ {
		lba := LBA(rng.Uint64n(workingSet))
		done, err := f.Write(now, lba, page(f, byte(i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		shadow[lba] = byte(i)
		now = done
	}
	st := f.Stats()
	if st.GCRuns == 0 || st.BlocksErased == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if wa := st.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification = %v, want > 1 after GC", wa)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after GC: %v", err)
	}
	// Data still correct after all that relocation.
	for lba, want := range shadow {
		got, _, err := f.Read(now, lba)
		if err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if got[0] != want {
			t.Fatalf("lba %d = %d, want %d", lba, got[0], want)
		}
	}
}

func TestGCAdvancesTime(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	workingSet := f.LogicalPages() / 4
	var now sim.Time
	var maxStep sim.Time
	for i := 0; i < int(arr.Config().TotalPages())*2; i++ {
		done, err := f.Write(now, LBA(uint64(i)%workingSet), page(f, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		if done < now {
			t.Fatal("completion went backwards")
		}
		if step := done - now; step > maxStep {
			maxStep = step
		}
		now = done
	}
	// Some write must have absorbed a GC cycle (erase is milliseconds).
	if maxStep < sim.Millisecond {
		t.Fatalf("max write latency %v; GC cost not visible in timing", maxStep)
	}
}

func TestBadBlocksExcluded(t *testing.T) {
	arr := smallNAND(t)
	// Mark a few blocks bad before FTL format.
	for _, b := range []nand.BlockID{1, 5, 9} {
		if err := arr.MarkBad(b); err != nil {
			t.Fatal(err)
		}
	}
	f := newFTL(t, arr)
	// Fill to capacity; no write may touch a bad block.
	var now sim.Time
	for i := uint64(0); i < f.LogicalPages(); i++ {
		done, err := f.Write(now, LBA(i), page(f, byte(i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = done
		ppa, _ := f.Translate(LBA(i))
		if arr.IsBad(arr.Config().BlockOf(ppa)) {
			t.Fatalf("lba %d mapped into bad block", i)
		}
	}
}

func TestWearAccounting(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	workingSet := f.LogicalPages() / 4
	var now sim.Time
	for i := 0; i < int(arr.Config().TotalPages())*3; i++ {
		done, err := f.Write(now, LBA(uint64(i)%workingSet), page(f, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	var total uint32
	for _, e := range f.EraseCounts() {
		total += e
	}
	if uint64(total) != f.Stats().BlocksErased {
		t.Fatalf("erase counters %d != stats %d", total, f.Stats().BlocksErased)
	}
	if total == 0 {
		t.Fatal("no erases recorded")
	}
}

// Property: any interleaving of writes/trims/preloads over a small LBA space
// keeps the mapping tables mutually consistent and reads return the last
// write.
func TestRandomOpsInvariants(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		arr := smallNAND(t)
		fl := newFTL(t, arr)
		shadow := make(map[LBA]byte)
		var now sim.Time
		space := fl.LogicalPages() / 8
		if space == 0 {
			space = 1
		}
		for _, op := range ops {
			lba := LBA(uint64(op) % space)
			switch op % 3 {
			case 0, 1: // write (2/3 of ops so GC gets exercised)
				fill := byte(op >> 8)
				done, err := fl.Write(now, lba, page(fl, fill))
				if err != nil {
					return false
				}
				now = done
				shadow[lba] = fill
			case 2: // trim
				if err := fl.Trim(lba); err != nil {
					return false
				}
				delete(shadow, lba)
			}
		}
		if fl.CheckInvariants() != nil {
			return false
		}
		for lba, want := range shadow {
			got, _, err := fl.Read(now, lba)
			if err != nil || got[0] != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkFTLWrite(b *testing.B) {
	cfg := nand.DefaultConfig()
	cfg.BlocksPerPlane = 32
	cfg.PagesPerBlock = 64
	arr, err := nand.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(arr, DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, f.PageSize())
	working := f.LogicalPages() / 2
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := f.Write(now, LBA(uint64(i)%working), data)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}
