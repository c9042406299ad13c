package ssd

import (
	"bytes"
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 16
	cfg.NAND.PagesPerBlock = 32
	return cfg
}

func newCtrl(t testing.TB) *Controller {
	t.Helper()
	c, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func preload(t testing.TB, c *Controller, pages int) {
	t.Helper()
	for i := 0; i < pages; i++ {
		if err := c.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func expected(c *Controller, lba uint64, off, n int) []byte {
	ppa, err := c.FTL().Translate(ftl.LBA(lba))
	if err != nil {
		panic(err)
	}
	buf := make([]byte, n)
	nand.ExpectedContent(c.Array().Config().ContentSeed, c.PageSize(), ppa, off, buf)
	return buf
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig()
	cfg.ReadBufferPages = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("ReadBufferPages=0 accepted")
	}
	cfg = testConfig()
	cfg.CMBBytes = 100
	if _, err := New(cfg, nil); err == nil {
		t.Error("tiny CMB accepted")
	}
	cfg = testConfig()
	cfg.PCIe.DMABandwidthMBps = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestBlockReadRoundTrip(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 8)
	buf := make([]byte, 4*c.PageSize())
	cmd := nvme.Command{Op: nvme.OpRead, LBA: 2, Pages: 4, Data: buf}
	comp := c.Execute(0, &cmd)
	if !comp.Ok() {
		t.Fatalf("completion %+v", comp)
	}
	for i := 0; i < 4; i++ {
		want := expected(c, uint64(2+i), 0, c.PageSize())
		got := buf[i*c.PageSize() : (i+1)*c.PageSize()]
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d content mismatch", i)
		}
	}
	if comp.BytesMoved != uint64(4*c.PageSize()) {
		t.Fatalf("BytesMoved = %d", comp.BytesMoved)
	}
	if comp.Done <= 0 {
		t.Fatal("no virtual time consumed")
	}
}

func TestBlockReadParallelChannels(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 8)
	// FTL stripes sequential LBAs channel-major, so a 2-page read uses both
	// channels: its completion should be far less than twice a 1-page read.
	one := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: make([]byte, c.PageSize())})
	c2, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c2.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	two := c2.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 2, Data: make([]byte, 2*c.PageSize())})
	if !one.Ok() || !two.Ok() {
		t.Fatal("reads failed")
	}
	tR := nand.TimingFor(testConfig().NAND.Cell).ReadPage
	if two.Done-one.Done >= tR {
		t.Fatalf("2-page read %v vs 1-page %v: no channel overlap", two.Done, one.Done)
	}
}

func TestBlockReadErrors(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	// Unmapped LBA.
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 100, Pages: 1, Data: make([]byte, c.PageSize())})
	if comp.Status != nvme.StatusUnmapped {
		t.Fatalf("status = %v, want Unmapped", comp.Status)
	}
	// Beyond capacity.
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1 << 40, Pages: 1, Data: make([]byte, c.PageSize())})
	if comp.Status != nvme.StatusLBAOutOfRange {
		t.Fatalf("status = %v, want LBAOutOfRange", comp.Status)
	}
	// Short buffer.
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 2, Data: make([]byte, 10)})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("status = %v, want InvalidCommand", comp.Status)
	}
}

func TestWriteThenRead(t *testing.T) {
	c := newCtrl(t)
	ps := c.PageSize()
	data := make([]byte, 2*ps)
	for i := range data {
		data[i] = byte(i % 251)
	}
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 10, Pages: 2, Data: data})
	if !w.Ok() {
		t.Fatalf("write: %+v", w)
	}
	buf := make([]byte, 2*ps)
	r := c.Execute(w.Done, &nvme.Command{Op: nvme.OpRead, LBA: 10, Pages: 2, Data: buf})
	if !r.Ok() {
		t.Fatalf("read: %+v", r)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read != written")
	}
	st := c.Stats()
	if st.WriteCmds != 1 || st.BlockReadCmds != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesFromHost != uint64(2*ps) || st.BytesToHost != uint64(2*ps) {
		t.Fatalf("traffic %+v", st)
	}
}

func TestTrimAndFlush(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpTrim, LBA: 1, Pages: 2})
	if !comp.Ok() {
		t.Fatalf("trim: %+v", comp)
	}
	r := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: make([]byte, c.PageSize())})
	if r.Status != nvme.StatusUnmapped {
		t.Fatalf("read after trim: %v", r.Status)
	}
	f := c.Execute(0, &nvme.Command{Op: nvme.OpFlush})
	if !f.Ok() {
		t.Fatalf("flush: %+v", f)
	}
}

func TestUnknownOpcode(t *testing.T) {
	c := newCtrl(t)
	comp := c.Execute(0, &nvme.Command{Op: nvme.Opcode(99)})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("status = %v", comp.Status)
	}
}

func newHMB(t testing.TB, ins *telemetry.Instruments) *hmb.Region {
	t.Helper()
	r, err := hmb.New(hmb.Config{DataBytes: 1 << 20, TempBufBytes: 64 << 10, TempSlot: 4096, InfoSlots: 64}, ins)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFineReadRequiresHMB(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("fine read without HMB: %v", comp.Status)
	}
	if c.HMBEnabled() {
		t.Fatal("HMBEnabled before EnableHMB")
	}
}

func TestFineReadExtractsRange(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	region := newHMB(t, nil)
	c.EnableHMB(region)

	const dest, off, n = 512, 1000, 128
	if err := region.Info().Push(hmb.InfoRecord{LBA: 3, ByteOff: off, ByteLen: n, Dest: dest}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{3}})
	if !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}
	if comp.BytesMoved != n {
		t.Fatalf("BytesMoved = %d, want %d (only demanded bytes cross PCIe)", comp.BytesMoved, n)
	}
	got := make([]byte, n)
	if err := region.ReadAt(dest, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expected(c, 3, off, n)) {
		t.Fatal("extracted bytes wrong")
	}
	if region.Info().Pending() != 0 {
		t.Fatal("info record not consumed (head not bumped)")
	}
	if c.Stats().FineReadCmds != 1 || c.Stats().RangesExtract != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestFineReadCrossPageRange(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	region := newHMB(t, nil)
	c.EnableHMB(region)
	ps := c.PageSize()

	// Range starts 32 B before the end of page 1 and extends 96 B into
	// page 2.
	off, n := ps-32, 128
	if err := region.Info().Push(hmb.InfoRecord{LBA: 1, ByteOff: off, ByteLen: n, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{1, 2}})
	if !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}
	got := make([]byte, n)
	if err := region.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	want := append(expected(c, 1, off, 32), expected(c, 2, 0, 96)...)
	if !bytes.Equal(got, want) {
		t.Fatal("cross-page extraction wrong")
	}
}

func TestFineReadValidation(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	region := newHMB(t, nil)
	c.EnableHMB(region)

	// No pending info record.
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("no-record status = %v", comp.Status)
	}
	// Record/command LBA mismatch.
	if err := region.Info().Push(hmb.InfoRecord{LBA: 9, ByteOff: 0, ByteLen: 8, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("mismatch status = %v", comp.Status)
	}
	// Range overruns the page list.
	if err := region.Info().Push(hmb.InfoRecord{LBA: 0, ByteOff: 4000, ByteLen: 200, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("overrun status = %v", comp.Status)
	}
}

func TestFineReadFasterThanBlockRead(t *testing.T) {
	// The core premise: a 128 B fine read must complete well before a 4 KiB
	// block read of the same page (no full-page DMA, leaner firmware path).
	c := newCtrl(t)
	preload(t, c, 2)
	region := newHMB(t, nil)
	c.EnableHMB(region)

	block := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: make([]byte, c.PageSize())})
	if err := region.Info().Push(hmb.InfoRecord{LBA: 1, ByteOff: 0, ByteLen: 128, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	fine := c.Execute(block.Done, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{1}})
	if !block.Ok() || !fine.Ok() {
		t.Fatal("reads failed")
	}
	blockLat := block.Done
	fineLat := fine.Done - block.Done
	if fineLat >= blockLat {
		t.Fatalf("fine read %v not faster than block read %v", fineLat, blockLat)
	}
}

func TestMMIOReadCosts(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	slot, done, err := c.LoadToCMB(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pcie := c.PCIeModel()
	// 8 bytes: one transaction.
	buf8 := make([]byte, 8)
	t8, err := c.MMIORead(done, slot, 0, buf8)
	if err != nil {
		t.Fatal(err)
	}
	if t8-done != pcie.MMIOTransaction {
		t.Fatalf("8B MMIO took %v, want %v", t8-done, pcie.MMIOTransaction)
	}
	// 4096 bytes: 512 transactions — linear in size.
	buf4k := make([]byte, 4096)
	t4k, err := c.MMIORead(done, slot, 0, buf4k)
	if err != nil {
		t.Fatal(err)
	}
	if t4k-done != 512*pcie.MMIOTransaction {
		t.Fatalf("4KiB MMIO took %v, want %v", t4k-done, 512*pcie.MMIOTransaction)
	}
	if !bytes.Equal(buf4k, expected(c, 0, 0, 4096)) {
		t.Fatal("MMIO data wrong")
	}
	// Odd size rounds transactions up.
	buf9 := make([]byte, 9)
	t9, _ := c.MMIORead(done, slot, 0, buf9)
	if t9-done != 2*pcie.MMIOTransaction {
		t.Fatalf("9B MMIO took %v, want 2 txns", t9-done)
	}
}

func TestDMAReadFromCMB(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	slot, done, err := c.LoadToCMB(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	end, err := c.DMAReadFromCMB(done, slot, 100, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, expected(c, 1, 100, 256)) {
		t.Fatal("DMA data wrong")
	}
	if end <= done {
		t.Fatal("DMA consumed no time")
	}
	// DMA of small payload beats MMIO of a large one but costs setup.
	if end-done < c.PCIeModel().DMASetup {
		t.Fatal("DMA cheaper than its setup cost")
	}
}

func TestCMBRangeChecks(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	buf := make([]byte, 8)
	if _, err := c.MMIORead(0, 0, 0, buf); err == nil {
		t.Error("read from unloaded CMB slot accepted")
	}
	slot, done, err := c.LoadToCMB(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MMIORead(done, slot, c.PageSize()-4, buf); err == nil {
		t.Error("overrun MMIO accepted")
	}
	if _, err := c.DMAReadFromCMB(done, -1, 0, buf); err == nil {
		t.Error("negative slot accepted")
	}
}

func TestCMBSlotRotation(t *testing.T) {
	cfg := testConfig()
	cfg.CMBBytes = 2 * cfg.NAND.PageSize // two slots
	c, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	s0, _, _ := c.LoadToCMB(0, 0)
	s1, _, _ := c.LoadToCMB(0, 1)
	s2, _, _ := c.LoadToCMB(0, 2)
	if s0 == s1 || s0 != s2 {
		t.Fatalf("slots %d,%d,%d: expected rotation over 2 slots", s0, s1, s2)
	}
}

func TestDriverIntegration(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	d := nvme.NewDriverQueues(c, 1, 32, nvme.DefaultCosts(), nil)
	buf := make([]byte, c.PageSize())
	comp, err := d.Submit(0, nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Ok() {
		t.Fatalf("completion %+v", comp)
	}
	if !bytes.Equal(buf, expected(c, 0, 0, c.PageSize())) {
		t.Fatal("driver read wrong data")
	}
	if comp.Done <= nvme.DefaultCosts().Total() {
		t.Fatal("transport costs missing")
	}
}

func BenchmarkFineRead128(b *testing.B) {
	cfg := testConfig()
	c, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := c.FTL().Preload(ftl.LBA(i)); err != nil {
			b.Fatal(err)
		}
	}
	region, err := hmb.New(hmb.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	c.EnableHMB(region)
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := uint64(i % 64)
		if err := region.Info().Push(hmb.InfoRecord{LBA: lba, ByteOff: 0, ByteLen: 128, Dest: 0}); err != nil {
			b.Fatal(err)
		}
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{lba}})
		if !comp.Ok() {
			b.Fatalf("%+v", comp)
		}
		now = comp.Done
	}
}
