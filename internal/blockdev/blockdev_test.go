package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pipette/internal/fault"
	"pipette/internal/ftl"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/telemetry"
)

func testStack(t testing.TB) (*ssd.Controller, *Layer) {
	t.Helper()
	cfg := ssd.DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 16
	cfg.NAND.PagesPerBlock = 32
	ctrl, err := ssd.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	drv := nvme.NewDriverQueues(ctrl, 1, 64, nvme.DefaultCosts(), nil)
	layer, err := New(drv, ctrl.PageSize(), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, layer
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0, DefaultConfig(), nil); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := New(nil, 4096, Config{MaxPagesPerCommand: 0}, nil); err == nil {
		t.Error("zero MaxPagesPerCommand accepted")
	}
}

func TestCoalesce(t *testing.T) {
	_, l := testStack(t)
	cases := []struct {
		in   []uint64
		want []run
	}{
		{nil, nil},
		{[]uint64{5}, []run{{5, 1}}},
		{[]uint64{5, 6, 7}, []run{{5, 3}}},
		{[]uint64{7, 5, 6}, []run{{5, 3}}}, // sorted before merging
		{[]uint64{1, 3, 5}, []run{{1, 1}, {3, 1}, {5, 1}}},
		{[]uint64{1, 2, 4, 5}, []run{{1, 2}, {4, 2}}},
		{[]uint64{2, 2, 3}, []run{{2, 2}}}, // duplicates collapse
	}
	for i, c := range cases {
		got := l.coalesce(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d run %d: got %v, want %v", i, j, got[j], c.want[j])
			}
		}
	}
}

func TestCoalesceRespectsMaxPages(t *testing.T) {
	_, l := testStack(t)
	l.cfg.MaxPagesPerCommand = 2
	got := l.coalesce([]uint64{1, 2, 3, 4, 5})
	if len(got) != 3 || got[0].count != 2 || got[1].count != 2 || got[2].count != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestReadPagesMergedCommand(t *testing.T) {
	ctrl, l := testStack(t)
	for i := 0; i < 8; i++ {
		if err := ctrl.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	pages, done, moved, err := l.ReadPages(0, []uint64{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 4 {
		t.Fatalf("got %d pages", len(pages))
	}
	if moved != uint64(4*ctrl.PageSize()) {
		t.Fatalf("moved %d bytes", moved)
	}
	if done <= 0 {
		t.Fatal("no time consumed")
	}
	st := l.Stats()
	if st.ReadCommands != 1 {
		t.Fatalf("adjacent pages issued %d commands, want 1 (merge broken)", st.ReadCommands)
	}
	if st.PagesRead != 4 || st.ReadRequests != 4 {
		t.Fatalf("stats %+v", st)
	}
	// Verify content against a direct device read.
	buf := make([]byte, ctrl.PageSize())
	comp := ctrl.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 3, Pages: 1, Data: buf})
	if !comp.Ok() || !bytes.Equal(pages[3], buf) {
		t.Fatal("merged read content mismatch")
	}
}

func TestReadPagesScatteredRace(t *testing.T) {
	ctrl, l := testStack(t)
	for i := 0; i < 16; i++ {
		if err := ctrl.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two disjoint runs race on the device: the total should be much less
	// than two serialized device reads.
	_, oneDone, _, err := l.ReadPages(0, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	_, twoDone, _, err := l.ReadPages(0, []uint64{8, 1})
	if err != nil {
		t.Fatal(err)
	}
	if twoDone >= 2*oneDone {
		t.Fatalf("scattered read %v vs single %v: no overlap", twoDone, oneDone)
	}
	if l.Stats().ReadCommands != 3 {
		t.Fatalf("commands = %d, want 3", l.Stats().ReadCommands)
	}
}

// TestReadPagesFailureWaitsForEarlierCommands: merged commands race on the
// device, so a later command can fail uncorrectably before an earlier,
// longer one completes. The request has already waited for that earlier
// command, so the failure is reported no earlier than its completion.
func TestReadPagesFailureWaitsForEarlierCommands(t *testing.T) {
	const (
		longPages = 8  // LBAs [0, longPages): one command, issued first
		bad       = 40 // the one LBA whose reads fail uncorrectably
	)
	read := func(lbas []uint64) (sim.Time, error) {
		prof, err := fault.ParseProfile(fmt.Sprintf("nand.read:1@%d-%d", bad, bad))
		if err != nil {
			t.Fatal(err)
		}
		cfg := ssd.DefaultConfig()
		cfg.NAND.Channels = 2
		cfg.NAND.WaysPerChannel = 2
		cfg.NAND.PlanesPerDie = 1
		cfg.NAND.BlocksPerPlane = 16
		cfg.NAND.PagesPerBlock = 32
		cfg.ECCUncorrectableFrac = 1
		cfg.ECCRetrySteps = 0 // fail on the first sense
		ins := &telemetry.Instruments{Injector: prof.NewInjector(1)}
		ctrl, err := ssd.New(cfg, ins)
		if err != nil {
			t.Fatal(err)
		}
		// Allocation rotates over the four dies: steer the long command's
		// pages onto one die, so it reads them serially, and the bad page
		// onto another, idle one.
		preload := func(lba uint64) {
			if err := ctrl.FTL().Preload(ftl.LBA(lba)); err != nil {
				t.Fatal(err)
			}
		}
		filler := uint64(100)
		for i := uint64(0); i < longPages; i++ {
			preload(i)
			for j := 0; j < 3; j++ {
				preload(filler)
				filler++
			}
		}
		preload(filler)
		preload(bad)
		l, err := New(nvme.NewDriverQueues(ctrl, 1, 64, nvme.DefaultCosts(), ins), ctrl.PageSize(), DefaultConfig(), ins)
		if err != nil {
			t.Fatal(err)
		}
		done, _, err := l.ReadPagesEach(0, lbas, func(uint64, []byte) {})
		return done, err
	}

	long := make([]uint64, longPages)
	for i := range long {
		long[i] = uint64(i)
	}
	longDone, err := read(long)
	if err != nil {
		t.Fatal(err)
	}
	failDone, err := read(append(long, bad))
	if !errors.Is(err, nvme.ErrUncorrectable) {
		t.Fatalf("err = %v, want uncorrectable", err)
	}
	if failDone < longDone {
		t.Fatalf("failed read completes at %v, before the earlier command it waited for (%v)", failDone, longDone)
	}
}

func TestReadPagesEmpty(t *testing.T) {
	_, l := testStack(t)
	pages, done, moved, err := l.ReadPages(42, nil)
	if err != nil || pages != nil || done != 42 || moved != 0 {
		t.Fatalf("empty read = %v,%v,%d,%v", pages, done, moved, err)
	}
}

func TestReadUnmappedFails(t *testing.T) {
	_, l := testStack(t)
	if _, _, _, err := l.ReadPages(0, []uint64{999}); err == nil {
		t.Fatal("unmapped read succeeded")
	}
}

func TestWritePages(t *testing.T) {
	ctrl, l := testStack(t)
	data := make([]byte, 3*ctrl.PageSize())
	for i := range data {
		data[i] = byte(i)
	}
	done, moved, err := l.WritePages(0, 10, data)
	if err != nil {
		t.Fatal(err)
	}
	if moved != uint64(len(data)) || done <= 0 {
		t.Fatalf("moved=%d done=%v", moved, done)
	}
	pages, _, _, err := l.ReadPages(done, []uint64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(pages[uint64(10+i)], data[i*ctrl.PageSize():(i+1)*ctrl.PageSize()]) {
			t.Fatalf("page %d mismatch", i)
		}
	}
	// Unaligned write rejected.
	if _, _, err := l.WritePages(0, 0, data[:100]); err == nil {
		t.Error("unaligned write accepted")
	}
}

func TestWriteSplitsAtMax(t *testing.T) {
	ctrl, l := testStack(t)
	l.cfg.MaxPagesPerCommand = 2
	data := make([]byte, 5*ctrl.PageSize())
	if _, _, err := l.WritePages(0, 0, data); err != nil {
		t.Fatal(err)
	}
	if l.Stats().WriteCommands != 3 {
		t.Fatalf("WriteCommands = %d, want 3", l.Stats().WriteCommands)
	}
}

func TestTrim(t *testing.T) {
	ctrl, l := testStack(t)
	data := make([]byte, ctrl.PageSize())
	if _, _, err := l.WritePages(0, 5, data); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Trim(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.ReadPages(0, []uint64{5}); err == nil {
		t.Fatal("read after trim succeeded")
	}
}
