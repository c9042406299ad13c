package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"pipette/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 16
	return cfg
}

func mustArray(t *testing.T, cfg Config) *Array {
	t.Helper()
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.WaysPerChannel = -1 },
		func(c *Config) { c.PageSize = 100 }, // not multiple of 8
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.ChannelMBps = 0 },
		func(c *Config) { c.ReadErrRate = 1.0 },
		func(c *Config) { c.Cell = CellType(99) },
	}
	for i, mut := range cases {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGeometryArithmetic(t *testing.T) {
	c := testConfig()
	if got := c.Dies(); got != 4 {
		t.Errorf("Dies = %d, want 4", got)
	}
	if got := c.TotalBlocks(); got != 32 {
		t.Errorf("TotalBlocks = %d, want 32", got)
	}
	if got := c.TotalPages(); got != 512 {
		t.Errorf("TotalPages = %d, want 512", got)
	}
	if got := c.CapacityBytes(); got != 512*4096 {
		t.Errorf("CapacityBytes = %d, want %d", got, 512*4096)
	}
}

func TestPPARoundTrip(t *testing.T) {
	c := testConfig()
	for ch := 0; ch < c.Channels; ch++ {
		for w := 0; w < c.WaysPerChannel; w++ {
			for blk := 0; blk < c.BlocksPerPlane; blk += 3 {
				for pg := 0; pg < c.PagesPerBlock; pg += 5 {
					p := c.PPAOf(ch, w, 0, blk, pg)
					gch, gw, gpl, gblk, gpg := c.Decompose(p)
					if gch != ch || gw != w || gpl != 0 || gblk != blk || gpg != pg {
						t.Fatalf("Decompose(PPAOf(%d,%d,0,%d,%d)) = (%d,%d,%d,%d,%d)",
							ch, w, blk, pg, gch, gw, gpl, gblk, gpg)
					}
					if c.ChannelOf(p) != ch {
						t.Fatalf("ChannelOf mismatch for %v", p)
					}
				}
			}
		}
	}
}

func TestPPARoundTripProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(raw uint64) bool {
		p := PPA(raw % c.TotalPages())
		ch, w, pl, blk, pg := c.Decompose(p)
		return c.PPAOf(ch, w, pl, blk, pg) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPAOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PPAOf out of range did not panic")
		}
	}()
	c := testConfig()
	c.PPAOf(c.Channels, 0, 0, 0, 0)
}

func TestBlockOfAndFirstPPA(t *testing.T) {
	c := testConfig()
	p := c.PPAOf(1, 1, 0, 3, 7)
	b := c.BlockOf(p)
	first := c.FirstPPA(b)
	_, _, _, _, pg := c.Decompose(first)
	if pg != 0 {
		t.Fatalf("FirstPPA page = %d, want 0", pg)
	}
	if c.BlockOf(first) != b {
		t.Fatal("FirstPPA escaped its block")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := mustArray(t, testConfig())
	p := a.Config().PPAOf(0, 0, 0, 0, 0)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := a.ProgramPage(0, p, data); err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	got, _, err := a.ReadPage(0, p)
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data != programmed data")
	}
	// The returned slice must be a copy.
	got[0] ^= 0xff
	again, _, _ := a.ReadPage(0, p)
	if again[0] != data[0] {
		t.Fatal("ReadPage returned aliased storage")
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	a := mustArray(t, testConfig())
	_, _, err := a.ReadPage(0, 0)
	if !errors.Is(err, ErrNotProgram) {
		t.Fatalf("err = %v, want ErrNotProgram", err)
	}
}

func TestProgramConstraints(t *testing.T) {
	a := mustArray(t, testConfig())
	cfg := a.Config()
	data := make([]byte, cfg.PageSize)

	// Out-of-order within a block.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 1), data); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order program err = %v, want ErrOutOfOrder", err)
	}
	// In order succeeds.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 0), data); err != nil {
		t.Fatalf("in-order program: %v", err)
	}
	// Reprogramming without erase fails.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 0), data); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogram err = %v, want ErrNotErased", err)
	}
	// Wrong length fails.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 1), data[:10]); !errors.Is(err, ErrBadLength) {
		t.Fatalf("short program err = %v, want ErrBadLength", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := mustArray(t, testConfig())
	cfg := a.Config()
	data := make([]byte, cfg.PageSize)
	p0 := cfg.PPAOf(0, 0, 0, 0, 0)
	if _, err := a.ProgramPage(0, p0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EraseBlock(0, cfg.BlockOf(p0)); err != nil {
		t.Fatalf("EraseBlock: %v", err)
	}
	// After erase, page 0 is reprogrammable and unwritten reads fail.
	if _, _, err := a.ReadPage(0, p0); !errors.Is(err, ErrNotProgram) {
		t.Fatalf("read after erase err = %v, want ErrNotProgram", err)
	}
	if _, err := a.ProgramPage(0, p0, data); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestBadBlockRejected(t *testing.T) {
	a := mustArray(t, testConfig())
	cfg := a.Config()
	b := cfg.BlockOf(cfg.PPAOf(0, 0, 0, 2, 0))
	if err := a.MarkBad(b); err != nil {
		t.Fatal(err)
	}
	if !a.IsBad(b) {
		t.Fatal("IsBad = false after MarkBad")
	}
	data := make([]byte, cfg.PageSize)
	if _, err := a.ProgramPage(0, cfg.FirstPPA(b), data); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program on bad block err = %v", err)
	}
	if _, err := a.EraseBlock(0, b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase on bad block err = %v", err)
	}
	if err := a.Preload(cfg.FirstPPA(b)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("preload on bad block err = %v", err)
	}
}

func TestPreloadContentDeterministic(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(1, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	got, _, err := a.ReadPage(0, p)
	if err != nil {
		t.Fatalf("ReadPage after Preload: %v", err)
	}
	want := make([]byte, cfg.PageSize)
	ExpectedContent(cfg.ContentSeed, cfg.PageSize, p, 0, want)
	if !bytes.Equal(got, want) {
		t.Fatal("preloaded content != ExpectedContent oracle")
	}
	// A second array with the same seed produces identical content.
	b := mustArray(t, cfg)
	if err := b.Preload(p); err != nil {
		t.Fatal(err)
	}
	got2, _, _ := b.ReadPage(0, p)
	if !bytes.Equal(got, got2) {
		t.Fatal("preloaded content not deterministic across arrays")
	}
}

func TestPeekRangeMatchesRead(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 1, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		t.Fatal(err)
	}
	full, _, _ := a.ReadPage(0, p)
	for _, tc := range []struct{ off, n int }{{0, 16}, {1, 7}, {100, 128}, {4000, 96}, {4095, 1}} {
		buf := make([]byte, tc.n)
		if err := a.PeekRange(p, tc.off, buf); err != nil {
			t.Fatalf("PeekRange(%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(buf, full[tc.off:tc.off+tc.n]) {
			t.Fatalf("PeekRange(%d,%d) mismatch", tc.off, tc.n)
		}
	}
	if err := a.PeekRange(p, 4090, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overlong PeekRange err = %v", err)
	}
}

func TestPreloadRespectsOrder(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	if err := a.Preload(cfg.PPAOf(0, 0, 0, 0, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order preload err = %v", err)
	}
	if err := a.Preload(cfg.PPAOf(0, 0, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Preload(cfg.PPAOf(0, 0, 0, 0, 0)); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double preload err = %v", err)
	}
}

func TestProgramOverwritesPreload(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		t.Fatal(err)
	}
	// NAND forbids program-over-program; the FTL would erase first. Verify
	// the constraint holds for preloaded pages too.
	if _, err := a.ProgramPage(0, p, make([]byte, cfg.PageSize)); !errors.Is(err, ErrNotErased) {
		t.Fatalf("program over preload err = %v", err)
	}
}

func TestReadTimingChannelParallelism(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	tR := a.Timing().ReadPage
	tx := cfg.transferTime(cfg.PageSize)

	// Two pages on different channels proceed fully in parallel.
	p1 := cfg.PPAOf(0, 0, 0, 0, 0)
	p2 := cfg.PPAOf(1, 0, 0, 0, 0)
	for _, p := range []PPA{p1, p2} {
		if err := a.Preload(p); err != nil {
			t.Fatal(err)
		}
	}
	_, d1, err := a.ReadPage(0, p1)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := a.ReadPage(0, p2)
	if err != nil {
		t.Fatal(err)
	}
	want := tR + tx
	if d1 != want || d2 != want {
		t.Fatalf("parallel channel reads done at %v/%v, want %v", d1, d2, want)
	}
}

func TestReadTimingSameDieSerializes(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	tR := a.Timing().ReadPage
	tx := cfg.transferTime(cfg.PageSize)
	p1 := cfg.PPAOf(0, 0, 0, 0, 0)
	p2 := cfg.PPAOf(0, 0, 0, 0, 1)
	for _, p := range []PPA{p1, p2} {
		if err := a.Preload(p); err != nil {
			t.Fatal(err)
		}
	}
	_, d1, _ := a.ReadPage(0, p1)
	_, d2, _ := a.ReadPage(0, p2)
	if d1 != tR+tx {
		t.Fatalf("first read done at %v, want %v", d1, tR+tx)
	}
	// Second read's sense waits for the die; its transfer then queues on
	// the bus behind nothing (bus freed long before).
	if want := 2*tR + tx; d2 != want {
		t.Fatalf("same-die second read done at %v, want %v", d2, want)
	}
}

func TestReadTimingSameChannelDifferentWays(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	tR := a.Timing().ReadPage
	tx := cfg.transferTime(cfg.PageSize)
	p1 := cfg.PPAOf(0, 0, 0, 0, 0)
	p2 := cfg.PPAOf(0, 1, 0, 0, 0)
	for _, p := range []PPA{p1, p2} {
		if err := a.Preload(p); err != nil {
			t.Fatal(err)
		}
	}
	_, d1, _ := a.ReadPage(0, p1)
	_, d2, _ := a.ReadPage(0, p2)
	if d1 != tR+tx {
		t.Fatalf("first read done at %v", d1)
	}
	// Senses overlap (different dies); transfers share one bus.
	if want := tR + 2*tx; d2 != want {
		t.Fatalf("same-channel second read done at %v, want %v", d2, want)
	}
}

func TestReadRetryInjection(t *testing.T) {
	cfg := testConfig()
	cfg.ReadErrRate = 0.5
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := a.ReadPage(sim.Time(i)*sim.Millisecond, p); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	st := a.Stats()
	if st.ReadRetries == 0 || st.ReadRetries == st.Reads {
		t.Fatalf("ReadRetries = %d of %d reads; expected some but not all", st.ReadRetries, st.Reads)
	}
}

func TestStatsAccumulate(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	data := make([]byte, cfg.PageSize)
	if _, err := a.ProgramPage(0, p, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ReadPage(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EraseBlock(0, cfg.BlockOf(p)); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Reads != 1 || st.Programs != 1 || st.Erases != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesOut != uint64(cfg.PageSize) || st.BytesIn != uint64(cfg.PageSize) {
		t.Fatalf("byte stats = %+v", st)
	}
}

func TestCellTypeTimings(t *testing.T) {
	if TimingFor(SLC).ReadPage >= TimingFor(MLC).ReadPage ||
		TimingFor(MLC).ReadPage >= TimingFor(TLC).ReadPage {
		t.Fatal("tR must increase SLC < MLC < TLC")
	}
	for _, c := range []CellType{SLC, MLC, TLC} {
		if c.String() == "" || len(c.String()) != 3 {
			t.Errorf("CellType(%d).String() = %q", int(c), c.String())
		}
	}
}

func TestPatternFillConsistentAcrossOffsets(t *testing.T) {
	// fill(p, off, buf) must produce the same bytes as the corresponding
	// window of the full page for arbitrary off/len.
	ps := patternSource{seed: 77, pageSize: 4096}
	full := ps.page(PPA(123))
	f := func(off16, n16 uint16) bool {
		off := int(off16) % 4096
		n := int(n16) % (4096 - off)
		buf := make([]byte, n)
		ps.fill(PPA(123), off, buf)
		return bytes.Equal(buf, full[off:off+n])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkReadPage(b *testing.B) {
	cfg := DefaultConfig()
	a, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.ReadPage(sim.Time(i), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatternFill128(b *testing.B) {
	ps := patternSource{seed: 1, pageSize: 4096}
	buf := make([]byte, 128)
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		ps.fill(PPA(i), (i*13)%3968, buf)
	}
}
