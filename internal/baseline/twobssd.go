package baseline

import (
	"fmt"

	"pipette/internal/metrics"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// TwoBSSDMode selects the byte-interface transfer mechanism.
type TwoBSSDMode int

// The two read modes of 2B-SSD (Bae et al., ISCA'18) the paper compares
// against.
const (
	MMIO TwoBSSDMode = iota
	DMA
)

// TwoBSSD models the 2B-SSD baseline (§2.2): the host reads through the
// Controller Memory Buffer, paying a critical-path setup per access — a
// page fault before MMIO loads, or a DMA mapping before a DMA transfer —
// and bypassing the I/O stack entirely, so there is no host-side caching
// of any kind ("without supporting data locality").
//
// The byte interface is read-side, as the paper evaluates reads: writes
// take the stack's conventional buffered path. Byte-interface reads bypass
// the page cache, so they observe pre-writeback flash content until Sync —
// a real limitation of the baseline the paper calls out ("simply bypasses
// the I/O stack").
type TwoBSSD struct {
	*Stack
	mode TwoBSSDMode
	cfg  StackConfig

	lbaScratch  []uint64
	slotScratch []int

	io metrics.IO
}

// NewTwoBSSD builds the baseline in the given mode.
func NewTwoBSSD(cfg StackConfig, mode TwoBSSDMode) (*TwoBSSD, error) {
	s, err := buildArmed(cfg, false)
	if err != nil {
		return nil, err
	}
	return &TwoBSSD{Stack: s, mode: mode, cfg: cfg}, nil
}

// Name implements Engine.
func (e *TwoBSSD) Name() string {
	if e.mode == MMIO {
		return "2B-SSD MMIO"
	}
	return "2B-SSD DMA"
}

// ReadAt implements Engine: load the covering NAND pages into the CMB
// (they race across channels), then move only the demanded bytes across
// PCIe via MMIO transactions or a DMA transfer. The byte interface
// bypasses the VFS, so the engine owns the stage-account request scope
// itself.
func (e *TwoBSSD) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	e.Ins.Stages.Begin(now)
	done, err := e.readAt(now, buf, off)
	e.Ins.Stages.Finish(done)
	return done, err
}

func (e *TwoBSSD) readAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	n := len(buf)
	if off < 0 || off+int64(n) > e.file.Size() {
		return now, fmt.Errorf("baseline: 2B-SSD read [%d,+%d) out of file", off, n)
	}
	e.io.BytesRequested += uint64(n)
	ps := e.Ctrl.PageSize()
	lbas, err := e.file.Inode().AppendLBAs(e.lbaScratch[:0], off, n, ps)
	e.lbaScratch = lbas[:0]
	if err != nil {
		return now, err
	}

	// Per-access critical-path setup (§2.2): page fault for MMIO mapping
	// or DMA mapping establishment.
	switch e.mode {
	case MMIO:
		now += e.cfg.PageFault
	case DMA:
		now += e.cfg.DMAMap
	}
	e.Ins.Stages.Mark(telemetry.StageConstruct, now)

	// Load pages to the CMB; issue together, wait for the last.
	if cap(e.slotScratch) < len(lbas) {
		e.slotScratch = make([]int, len(lbas))
	}
	slots := e.slotScratch[:len(lbas)]
	loadDone := now
	for i, lba := range lbas {
		slot, done, err := e.Ctrl.LoadToCMB(now, lba)
		if err != nil {
			// The failed access still waits for its racing loads.
			if done > loadDone {
				loadDone = done
			}
			return loadDone, fmt.Errorf("baseline: CMB load: %w", err)
		}
		slots[i] = slot
		if done > loadDone {
			loadDone = done
		}
	}

	// Close the racing loads' attribution window at the last completion.
	e.Ins.Stages.Mark(telemetry.StageNAND, loadDone)

	// Transfer the demanded window page by page.
	t := loadDone
	for i, lba := range lbas {
		_ = lba
		pageStart := (off/int64(ps) + int64(i)) * int64(ps)
		lo, hi := off, off+int64(n)
		if pageStart > lo {
			lo = pageStart
		}
		if pageEnd := pageStart + int64(ps); pageEnd < hi {
			hi = pageEnd
		}
		if hi <= lo {
			continue
		}
		dst := buf[lo-off : hi-off]
		inPage := int(lo - pageStart)
		var done sim.Time
		var terr error
		if e.mode == MMIO {
			done, terr = e.Ctrl.MMIORead(t, slots[i], inPage, dst)
		} else {
			done, terr = e.Ctrl.DMAReadFromCMB(t, slots[i], inPage, dst)
		}
		if terr != nil {
			return t, terr
		}
		t = done
	}
	e.io.BytesTransferred += uint64(n)
	e.io.FineReads++
	return t, nil
}

// Snapshot implements Engine.
func (e *TwoBSSD) Snapshot() metrics.Snapshot {
	snap := e.Stack.Snapshot(e.Name())
	snap.IO.BytesRequested += e.io.BytesRequested
	snap.IO.BytesTransferred += e.io.BytesTransferred
	snap.IO.FineReads = e.io.FineReads
	// No host-side caching: memory usage is zero by design.
	snap.MemoryMB = 0
	return snap
}
