package ssd

import (
	"strings"
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nvme"
)

func TestIdentify(t *testing.T) {
	c := newCtrl(t)
	id := c.Identify()
	cfg := testConfig().NAND
	if id.Channels != cfg.Channels || id.WaysPerChannel != cfg.WaysPerChannel ||
		id.PageSize != cfg.PageSize {
		t.Fatalf("identify geometry mismatch: %+v", id)
	}
	if id.CellType != cfg.Cell.String() {
		t.Fatalf("cell type %q", id.CellType)
	}
	if id.RawCapacity == 0 || id.LogicalCapacity == 0 || id.LogicalCapacity >= id.RawCapacity {
		t.Fatalf("capacities: raw=%d logical=%d", id.RawCapacity, id.LogicalCapacity)
	}
	if id.HMBEnabled {
		t.Fatal("HMB reported enabled before handshake")
	}
	r, err := hmb.New(hmb.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableHMB(r)
	if !c.Identify().HMBEnabled {
		t.Fatal("HMB not reported after handshake")
	}
	if s := id.String(); !strings.Contains(s, "ch x") || !strings.Contains(s, "GiB") {
		t.Fatalf("identify string: %q", s)
	}
}

func TestSmartCounters(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 8)
	// One block read, one write, one fine read.
	buf := make([]byte, c.PageSize())
	if comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf}); !comp.Ok() {
		t.Fatalf("read: %+v", comp)
	}
	data := make([]byte, c.PageSize())
	if comp := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 20, Pages: 1, Data: data}); !comp.Ok() {
		t.Fatalf("write: %+v", comp)
	}
	r, err := hmb.New(hmb.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableHMB(r)
	if err := r.Info().Push(hmb.InfoRecord{LBA: 1, ByteOff: 0, ByteLen: 64, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	if comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{1}}); !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}

	s := c.Smart()
	if s.HostReadCommands != 1 || s.HostWriteCommands != 1 || s.FineReadCommands != 1 {
		t.Fatalf("command counters: %+v", s)
	}
	if s.BytesRead != uint64(c.PageSize())+64 || s.BytesWritten != uint64(c.PageSize()) {
		t.Fatalf("byte counters: read=%d written=%d", s.BytesRead, s.BytesWritten)
	}
	if s.NANDReads < 2 || s.NANDProgams < 1 {
		t.Fatalf("nand counters: %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "fine reads") || !strings.Contains(str, "wear") {
		t.Fatalf("smart string: %q", str)
	}
}

func TestSmartWearAfterChurn(t *testing.T) {
	c := newCtrl(t)
	data := make([]byte, c.PageSize())
	var now = c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 0, Pages: 1, Data: data}).Done
	working := c.LogicalPages() / 2
	for i := 0; i < int(c.Array().Config().TotalPages()); i++ {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: uint64(i) % working, Pages: 1, Data: data})
		if !comp.Ok() {
			t.Fatalf("write %d: %+v", i, comp)
		}
		now = comp.Done
	}
	s := c.Smart()
	if s.GCRuns == 0 || s.NANDErases == 0 {
		t.Fatalf("churn produced no GC: %+v", s)
	}
	if s.WriteAmplification < 1 {
		t.Fatalf("WA = %v", s.WriteAmplification)
	}
	if s.MaxEraseCount == 0 || s.AvgEraseCount <= 0 {
		t.Fatalf("wear: %+v", s)
	}
	// Wear-level integration: the FTL tick runs through the controller's
	// stack without violating invariants.
	if _, _, err := c.FTL().WearLevelTick(now); err != nil {
		t.Fatal(err)
	}
	if err := c.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = ftl.DefaultConfig()
}
