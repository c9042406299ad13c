package baseline

import (
	"bytes"
	"strings"
	"testing"

	"pipette/internal/fault"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// nilStack assembles a fine stack whose layers hold a nil *Instruments:
// no tracer, stage account, resource tracker or fault injector anywhere.
func nilStack(t testing.TB, cfg StackConfig) *Stack {
	t.Helper()
	s := new(Stack)
	if err := s.assemble(cfg, true, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInstrumentsReachEveryLayer checks that the stack's one Instruments
// reaches every layer: a tracer installed through Stack.SetTracer records
// spans on every layer's track and goes silent after SetTracer(nil), and
// an injector installed through Stack.Arm fires at every site.
func TestInstrumentsReachEveryLayer(t *testing.T) {
	const fileSize = 4 << 20
	cfg := smallStackConfig(fileSize)
	cfg.SSD.NAND.BlocksPerPlane = 8 // small enough for rewrites to reach GC
	cfg.SSD.ECCUncorrectableFrac = 0
	s, err := Build(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	s.SetTracer(rec)

	var now sim.Time
	step := func(done sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	small := make([]byte, 128)
	step(s.ReadAt(now, small, 1<<20)) // fine miss
	step(s.ReadAt(now, small, 1<<20)) // fine hit
	step(s.ReadAt(now, make([]byte, 16<<10), 2<<20))
	// The FTL spans only garbage collection, so rewrite one region until
	// a collection runs.
	page := make([]byte, 4096)
	for round := 0; s.Ctrl.FTL().Stats().GCRuns == 0; round++ {
		if round == 64 {
			t.Fatal("rewrites never triggered garbage collection")
		}
		for off := int64(0); off < 1<<20; off += 4096 {
			step(s.WriteAt(now, page, off))
		}
		step(s.Sync(now))
	}

	tracks := map[string]bool{}
	for _, row := range rec.Breakdown().Rows {
		tracks[row[0][:strings.LastIndexByte(row[0], '/')]] = true
	}
	for _, want := range []string{
		telemetry.TrackVFS, telemetry.TrackBlock, telemetry.TrackNVMe, telemetry.TrackSSD,
		telemetry.TrackFTL, "nand/d*", "nand/ch*", telemetry.TrackFine,
	} {
		if !tracks[want] {
			t.Errorf("no spans on track %q (have %v)", want, tracks)
		}
	}

	s.SetTracer(nil)
	events := rec.Events()
	step(s.ReadAt(now, small, 3<<20))
	step(s.ReadAt(now, make([]byte, 16<<10), 3<<20+64<<10))
	step(s.WriteAt(now, page, 0))
	step(s.Sync(now))
	if got := rec.Events(); got != events {
		t.Errorf("recorder gained %d events after SetTracer(nil)", got-events)
	}

	prof, err := fault.ParseProfile("nand.read:1#2,hmb.ring:1#1,nvme.dma:1#1,vfs.writeback:1#1")
	if err != nil {
		t.Fatal(err)
	}
	s.Arm(prof, 7)
	for off := int64(1 << 20); off < 4<<20; off += 256 << 10 {
		if done, err := s.ReadAt(now, small, off+8<<10); err == nil {
			now = done
		}
	}
	step(s.WriteAt(now, page, 0))
	step(s.Sync(now))
	f := s.Faults()
	for site, n := range map[fault.Site]uint64{
		fault.SiteNANDRead:     f.ECCRetries,
		fault.SiteHMBRing:      f.RingCorruptions,
		fault.SiteNVMeDMA:      f.DMACorruptions,
		fault.SiteVFSWriteback: f.WritebackRetries,
	} {
		if n == 0 {
			t.Errorf("site %v: counter did not move (%+v)", site, f)
		}
	}
}

// silentProfile arms every fault site on an LBA window past the end of any
// test device: the injector is installed, so the checksum paths run, but
// it never fires.
const silentProfile = "nand.read:1@1000000000-1000000001,nand.program:1@1000000000-1000000001," +
	"hmb.ring:1@1000000000-1000000001,nvme.dma:1@1000000000-1000000001," +
	"vfs.writeback:1@1000000000-1000000001"

// TestInstrumentsDoNotMoveVirtualTime runs one seeded mixed sequence of
// fine and block reads, overlapping writes and syncs on a fully
// instrumented stack and on a stack whose layers hold nil Instruments:
// every operation must complete at the same virtual time with the same
// bytes.
func TestInstrumentsDoNotMoveVirtualTime(t *testing.T) {
	const fileSize = 4 << 20
	cfg := smallStackConfig(fileSize)
	cfg.VFS.PageCachePages = 256
	full, err := Build(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	full.SetTracer(telemetry.NewRecorder())
	prof, err := fault.ParseProfile(silentProfile)
	if err != nil {
		t.Fatal(err)
	}
	full.Arm(prof, 1)
	bare := nilStack(t, cfg)

	rng := sim.NewRNG(42)
	var tFull, tBare sim.Time
	for i := 0; i < 3000; i++ {
		var n int
		switch k := rng.Uint64n(10); {
		case k < 5:
			n = 1 + int(rng.Uint64n(512)) // fine-sized read
		case k < 7:
			n = 4096 + int(rng.Uint64n(12<<10)) // block read
		case k < 9:
			n = -1 - int(rng.Uint64n(8<<10)) // write of -n bytes
		}
		off := int64(rng.Uint64n(fileSize - 16<<10))
		var dFull, dBare sim.Time
		var eFull, eBare error
		var bFull, bBare []byte
		switch {
		case n > 0:
			bFull, bBare = make([]byte, n), make([]byte, n)
			dFull, eFull = full.ReadAt(tFull, bFull, off)
			dBare, eBare = bare.ReadAt(tBare, bBare, off)
		case n < 0:
			data := make([]byte, -n)
			for j := range data {
				data[j] = byte(i + j)
			}
			dFull, eFull = full.WriteAt(tFull, data, off)
			dBare, eBare = bare.WriteAt(tBare, data, off)
		default:
			dFull, eFull = full.Sync(tFull)
			dBare, eBare = bare.Sync(tBare)
		}
		if eFull != nil || eBare != nil {
			t.Fatalf("op %d: errors %v / %v", i, eFull, eBare)
		}
		if dFull != dBare {
			t.Fatalf("op %d (n=%d off=%d): instrumented done %d ns, nil done %d ns",
				i, n, off, int64(dFull), int64(dBare))
		}
		if !bytes.Equal(bFull, bBare) {
			t.Fatalf("op %d: read bytes differ", i)
		}
		tFull, tBare = dFull, dBare
	}
	if full.Stages().Requests() == 0 || full.Faults().Injected != 0 {
		t.Fatalf("instrumented stack: %d stage requests, %d injections",
			full.Stages().Requests(), full.Faults().Injected)
	}
}

// hotStackConfig sizes a stack like the facade's read benchmarks: a
// 128 MiB fine-grained file, a 32 MiB page cache, an 8 MiB fine cache and
// one NVMe queue pair.
func hotStackConfig() StackConfig {
	cfg := DefaultStackConfig(128 << 20)
	cfg.VFS.PageCachePages = (32 << 20) / 4096
	cfg.Core.HMB.DataBytes = 8 << 20
	cfg.QueuePairs = 1
	return cfg
}

// TestNilInstrumentsReadAllocFree pins the nil-instruments read paths at
// zero allocations per request: fine hits, fine misses and block reads.
func TestNilInstrumentsReadAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fineCache bool
		size      int
		pages     int64 // offsets cycle over this many pages
	}{
		{"FineHit128", true, 128, 1024},
		{"FineMiss128", false, 128, 30000},
		{"BlockRead4K", true, 4096, 30000},
	} {
		s := nilStack(t, hotStackConfig())
		if !tc.fineCache {
			s.Core.DisableCache()
		}
		buf := make([]byte, tc.size)
		var now sim.Time
		i := int64(0)
		read := func() {
			done, err := s.ReadAt(now, buf, i%tc.pages*4096)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			i++
		}
		for j := 0; j < 10000; j++ {
			read() // warm caches, pools and scratch buffers
		}
		if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkFineRead128Hot runs the facade's hot 128 B read loop on a stack
// whose layers hold nil Instruments and on a Build stack (no-op tracer,
// stage account, resource tracker): the difference is the cost of the
// instrument seam with tracing off.
func BenchmarkFineRead128Hot(b *testing.B) {
	run := func(b *testing.B, s *Stack) {
		buf := make([]byte, 128)
		var now sim.Time
		b.SetBytes(128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done, err := s.ReadAt(now, buf, int64(i%1024)*4096)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nilStack(b, hotStackConfig())) })
	b.Run("instrumented", func(b *testing.B) {
		s, err := Build(hotStackConfig(), true)
		if err != nil {
			b.Fatal(err)
		}
		run(b, s)
	})
}
