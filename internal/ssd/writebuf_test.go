package ssd

import (
	"bytes"
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nvme"
	"pipette/internal/sim"
)

func bufferedCtrl(t testing.TB, bufPages int) *Controller {
	t.Helper()
	cfg := testConfig()
	cfg.WriteBufferPages = bufPages
	c, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWriteBufferAcksWithoutProgram(t *testing.T) {
	buffered := bufferedCtrl(t, 32)
	inline := newCtrl(t)
	ps := buffered.PageSize()
	data := make([]byte, ps)

	bc := buffered.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 0, Pages: 1, Data: data})
	ic := inline.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 0, Pages: 1, Data: data})
	if !bc.Ok() || !ic.Ok() {
		t.Fatal("writes failed")
	}
	// Buffered ack hides tPROG (hundreds of microseconds).
	if bc.Done >= ic.Done {
		t.Fatalf("buffered write %v not faster than inline %v", bc.Done, ic.Done)
	}
	if bc.Done >= 100*sim.Microsecond {
		t.Fatalf("buffered ack %v should be DMA-bound", bc.Done)
	}
	if buffered.BufferedPages() != 1 {
		t.Fatalf("BufferedPages = %d", buffered.BufferedPages())
	}
	// Nothing programmed yet.
	if buffered.Array().Stats().Programs != 0 {
		t.Fatal("buffered write programmed NAND before destage")
	}
}

func TestWriteBufferReadCoherence(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	data := make([]byte, ps)
	for i := range data {
		data[i] = byte(i * 3)
	}
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 5, Pages: 1, Data: data})
	if !w.Ok() {
		t.Fatal(w)
	}
	// Block read sees the buffered content.
	buf := make([]byte, ps)
	r := c.Execute(w.Done, &nvme.Command{Op: nvme.OpRead, LBA: 5, Pages: 1, Data: buf})
	if !r.Ok() || !bytes.Equal(buf, data) {
		t.Fatal("block read did not see buffered write")
	}
	// Fine read sees it too.
	region, err := hmb.New(hmb.Config{DataBytes: 1 << 20, TempBufBytes: 64 << 10, TempSlot: 4096, InfoSlots: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableHMB(region)
	if err := region.Info().Push(hmb.InfoRecord{LBA: 5, ByteOff: 100, ByteLen: 32, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	fr := c.Execute(r.Done, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{5}})
	if !fr.Ok() {
		t.Fatalf("fine read: %+v", fr)
	}
	got := make([]byte, 32)
	if err := region.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100:132]) {
		t.Fatal("fine read did not see buffered write")
	}
	// CMB load sees it.
	slot, done, err := c.LoadToCMB(fr.Done, 5)
	if err != nil {
		t.Fatal(err)
	}
	cmbBuf := make([]byte, 64)
	if _, err := c.MMIORead(done, slot, 0, cmbBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmbBuf, data[:64]) {
		t.Fatal("CMB load did not see buffered write")
	}
	// Oracle sees it.
	peek := make([]byte, 16)
	if err := c.PeekLBA(5, 100, peek); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(peek, data[100:116]) {
		t.Fatal("oracle did not see buffered write")
	}
}

func TestWriteBufferDestagesAtHighWater(t *testing.T) {
	c := bufferedCtrl(t, 8)
	ps := c.PageSize()
	data := make([]byte, ps)
	var now sim.Time
	for i := 0; i < 20; i++ {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: uint64(i), Pages: 1, Data: data})
		if !comp.Ok() {
			t.Fatalf("write %d: %+v", i, comp)
		}
		now = comp.Done
		if c.BufferedPages() > 9 {
			t.Fatalf("buffer exceeded high-water mark: %d", c.BufferedPages())
		}
	}
	if c.Stats().PagesDestaged == 0 {
		t.Fatal("no background destage happened")
	}
	// Destaged pages are readable from NAND after buffer eviction.
	buf := make([]byte, ps)
	r := c.Execute(now, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf})
	if !r.Ok() {
		t.Fatalf("read of destaged page: %+v", r)
	}
}

func TestFlushDrainsBuffer(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	data := make([]byte, ps)
	var now sim.Time
	for i := 0; i < 5; i++ {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: uint64(i), Pages: 1, Data: data})
		now = comp.Done
	}
	if c.BufferedPages() != 5 {
		t.Fatalf("BufferedPages = %d", c.BufferedPages())
	}
	fl := c.Execute(now, &nvme.Command{Op: nvme.OpFlush})
	if !fl.Ok() {
		t.Fatalf("flush: %+v", fl)
	}
	if c.BufferedPages() != 0 {
		t.Fatal("flush left buffered pages")
	}
	// Flush is synchronous: it pays the program time.
	if fl.Done-now < 100*sim.Microsecond {
		t.Fatalf("flush of 5 pages took only %v", fl.Done-now)
	}
	// All five pages now live on flash via the FTL.
	for i := 0; i < 5; i++ {
		if !c.FTL().IsMapped(ftl.LBA(i)) {
			t.Fatalf("lba %d not mapped after flush", i)
		}
	}
}

func TestWriteBufferOverwriteCoalesces(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	a := bytes.Repeat([]byte{1}, ps)
	b := bytes.Repeat([]byte{2}, ps)
	var now sim.Time
	for _, d := range [][]byte{a, b, a, b} {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: 7, Pages: 1, Data: d})
		now = comp.Done
	}
	if c.BufferedPages() != 1 {
		t.Fatalf("rewrites did not coalesce: %d pages", c.BufferedPages())
	}
	fl := c.Execute(now, &nvme.Command{Op: nvme.OpFlush})
	if !fl.Ok() {
		t.Fatal("flush failed")
	}
	// Only the final version programs.
	if got := c.Array().Stats().Programs; got != 1 {
		t.Fatalf("programs = %d, want 1 (coalesced)", got)
	}
	buf := make([]byte, ps)
	r := c.Execute(fl.Done, &nvme.Command{Op: nvme.OpRead, LBA: 7, Pages: 1, Data: buf})
	if !r.Ok() || !bytes.Equal(buf, b) {
		t.Fatal("coalesced content wrong")
	}
}

func TestWriteBufferTrimDropsPage(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	data := make([]byte, ps)
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 3, Pages: 1, Data: data})
	tr := c.Execute(w.Done, &nvme.Command{Op: nvme.OpTrim, LBA: 3, Pages: 1})
	if !tr.Ok() {
		t.Fatalf("trim: %+v", tr)
	}
	if c.BufferedPages() != 0 {
		t.Fatal("trim left the page buffered")
	}
	r := c.Execute(tr.Done, &nvme.Command{Op: nvme.OpRead, LBA: 3, Pages: 1, Data: make([]byte, ps)})
	if r.Status != nvme.StatusUnmapped {
		t.Fatalf("read after trim: %v", r.Status)
	}
}

func TestWriteBufferRejectsBadLBA(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 1 << 40, Pages: 1, Data: make([]byte, ps)})
	if comp.Status != nvme.StatusLBAOutOfRange {
		t.Fatalf("status = %v", comp.Status)
	}
	cfg := testConfig()
	cfg.WriteBufferPages = -1
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("negative write buffer accepted")
	}
}
