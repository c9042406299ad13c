package ssd

import (
	"bytes"
	"errors"
	"testing"

	"pipette/internal/fault"
	"pipette/internal/hmb"
	"pipette/internal/nvme"
	"pipette/internal/telemetry"
)

// armed builds a controller whose instruments carry a fault injector from
// the given profile.
func armed(t testing.TB, profile string, seed uint64) *Controller {
	t.Helper()
	p, err := fault.ParseProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(testConfig(), &telemetry.Instruments{Injector: p.NewInjector(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestECCRetrySlowsButCorrects(t *testing.T) {
	// Severity spectrum above the uncorrectable fraction: every hit
	// recovers after retries. ByteOff-free block read of one page.
	c := armed(t, "nand.read:1#1", 7)
	c.cfg.ECCUncorrectableFrac = 0 // force the recoverable branch
	preload(t, c, 2)

	clean := newCtrl(t)
	preload(t, clean, 2)

	buf := make([]byte, c.PageSize())
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: buf})
	if !comp.Ok() {
		t.Fatalf("faulted read failed: %+v", comp)
	}
	ref := make([]byte, clean.PageSize())
	compRef := clean.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: ref})
	if !compRef.Ok() {
		t.Fatalf("clean read failed: %+v", compRef)
	}
	if !bytes.Equal(buf, expected(c, 1, 0, c.PageSize())) {
		t.Fatal("recovered read returned wrong bytes")
	}
	f := c.Faults()
	if f.ECCRetries == 0 {
		t.Fatal("no retry charged for an injected bit-error burst")
	}
	if f.Uncorrectable != 0 {
		t.Fatalf("unexpected uncorrectable: %+v", f)
	}
	if comp.Done <= compRef.Done {
		t.Fatalf("retry did not cost time: faulted %v <= clean %v", comp.Done, compRef.Done)
	}
}

func TestECCUncorrectable(t *testing.T) {
	c := armed(t, "nand.read:1#1", 7)
	c.cfg.ECCUncorrectableFrac = 1 // every hit exhausts the ladder
	preload(t, c, 2)

	buf := make([]byte, c.PageSize())
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf})
	if comp.Ok() {
		t.Fatal("uncorrectable page read succeeded")
	}
	if comp.Status != nvme.StatusMediaError {
		t.Fatalf("status = %v, want MediaError", comp.Status)
	}
	if !errors.Is(comp.Status.Err(), nvme.ErrUncorrectable) {
		t.Fatal("MediaError does not map to ErrUncorrectable")
	}
	f := c.Faults()
	if f.Uncorrectable != 1 {
		t.Fatalf("Uncorrectable = %d, want 1", f.Uncorrectable)
	}
	// The full ladder is still charged before giving up.
	if f.ECCRetries != uint64(c.cfg.ECCRetrySteps) {
		t.Fatalf("ECCRetries = %d, want full ladder %d", f.ECCRetries, c.cfg.ECCRetrySteps)
	}
}

func TestFineReadRingCorruption(t *testing.T) {
	c := armed(t, "hmb.ring:1#1", 7)
	preload(t, c, 4)
	region := newHMB(t, c.ins) // the ring shares the controller's injector
	c.EnableHMB(region)

	if err := region.Info().Push(hmb.InfoRecord{LBA: 3, ByteOff: 100, ByteLen: 64, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{3}})
	if comp.Status != nvme.StatusCorruptRing {
		t.Fatalf("status = %v, want CorruptRing", comp.Status)
	}
	if region.Info().Pending() != 0 {
		t.Fatal("corrupt record wedged the ring (head not advanced)")
	}
	if c.Faults().RingCorruptions != 1 {
		t.Fatalf("RingCorruptions = %d, want 1", c.Faults().RingCorruptions)
	}

	// The injection budget (#1) is spent: the next fine read is clean.
	if err := region.Info().Push(hmb.InfoRecord{LBA: 3, ByteOff: 100, ByteLen: 64, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp = c.Execute(comp.Done, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{3}})
	if !comp.Ok() {
		t.Fatalf("post-budget fine read failed: %+v", comp)
	}
	got := make([]byte, 64)
	if err := region.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expected(c, 3, 100, 64)) {
		t.Fatal("post-corruption fine read returned wrong bytes")
	}
}

func TestFineReadDMACorruptionDetectable(t *testing.T) {
	c := armed(t, "nvme.dma:1#1", 7)
	preload(t, c, 4)
	region := newHMB(t, nil)
	c.EnableHMB(region)

	const dest, off, n = 256, 500, 96
	if err := region.Info().Push(hmb.InfoRecord{LBA: 2, ByteOff: off, ByteLen: n, Dest: dest}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{2}})
	if !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}
	got := make([]byte, n)
	if err := region.ReadAt(dest, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, expected(c, 2, off, n)) {
		t.Fatal("payload not corrupted at p=1")
	}
	// The host-side validation contract: the device-computed checksum
	// disagrees with the landed bytes, so the host detects the corruption.
	if fault.Sum32(got) == comp.PayloadSum {
		t.Fatal("corruption not detectable from PayloadSum")
	}
	if c.Faults().DMACorruptions != 1 {
		t.Fatalf("DMACorruptions = %d, want 1", c.Faults().DMACorruptions)
	}
}

func TestProgramRetryRemaps(t *testing.T) {
	c := armed(t, "nand.program:1#1", 7)
	data := bytes.Repeat([]byte{0xAB}, c.PageSize())

	clean := newCtrl(t)
	compRef := clean.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 5, Pages: 1, Data: append([]byte(nil), data...)})
	if !compRef.Ok() {
		t.Fatalf("clean write: %+v", compRef)
	}

	comp := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 5, Pages: 1, Data: data})
	if !comp.Ok() {
		t.Fatalf("faulted write: %+v", comp)
	}
	if c.Faults().ProgramRetries != 1 {
		t.Fatalf("ProgramRetries = %d, want 1", c.Faults().ProgramRetries)
	}
	if comp.Done <= compRef.Done {
		t.Fatal("program retry did not cost time")
	}
	// The rewritten page reads back correctly.
	buf := make([]byte, c.PageSize())
	rcomp := c.Execute(comp.Done, &nvme.Command{Op: nvme.OpRead, LBA: 5, Pages: 1, Data: buf})
	if !rcomp.Ok() {
		t.Fatalf("read-back: %+v", rcomp)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read-back after program retry returned wrong bytes")
	}
}

// BenchmarkBlockReadNoFaults guards the acceptance criterion that the Nop
// injector adds zero allocations to the read hot path.
func BenchmarkBlockReadNoFaults(b *testing.B) {
	c := newCtrl(b)
	preload(b, c, 8)
	buf := make([]byte, c.PageSize())
	cmd := nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comp := c.Execute(0, &cmd); !comp.Ok() {
			b.Fatal(comp.Status)
		}
	}
}
