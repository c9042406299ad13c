// Package ssd models the SSD controller: it executes NVMe commands against
// the FTL/NAND stack, owns the controller-DRAM read buffer, implements the
// paper's Fine-Grained Read Engine (§3.1.2, Figure 4), and exposes the
// Controller Memory Buffer plus MMIO/DMA transfer mechanics the 2B-SSD
// baselines are built from.
//
// All PCIe crossings are accounted as host-interface traffic; device-
// internal movement (NAND -> read buffer -> CMB) is not, matching how the
// paper's I/O-traffic tables count only demanded-vs-transferred host bytes.
package ssd

import (
	"errors"
	"fmt"

	"pipette/internal/fault"
	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// PCIe models the host interconnect costs (Gen3 x4 in the paper's
// prototype).
type PCIe struct {
	DMABandwidthMBps float64  // effective DMA throughput
	DMASetup         sim.Time // descriptor setup per DMA transfer
	MMIOTransaction  sim.Time // one non-posted MMIO read round trip
	MMIOPayload      int      // bytes per MMIO transaction (8 on x86)
}

// DefaultPCIe returns Gen3 x4-flavoured constants.
func DefaultPCIe() PCIe {
	return PCIe{
		DMABandwidthMBps: 3200,
		DMASetup:         300 * sim.Nanosecond,
		MMIOTransaction:  250 * sim.Nanosecond,
		MMIOPayload:      8,
	}
}

// dmaTime is the link occupancy to move n bytes by DMA.
func (p PCIe) dmaTime(n int) sim.Time {
	return p.DMASetup + sim.Time(float64(n)/(p.DMABandwidthMBps*(1<<20))*float64(sim.Second))
}

// mmioTime is the cost to read n bytes through non-posted MMIO
// transactions: each moves at most MMIOPayload bytes and must wait for its
// completion before the next issues (why 2B-SSD MMIO degrades linearly with
// request size in the paper's Figure 8).
func (p PCIe) mmioTime(n int) sim.Time {
	txns := (n + p.MMIOPayload - 1) / p.MMIOPayload
	return sim.Time(txns) * p.MMIOTransaction
}

// Config assembles a device.
type Config struct {
	NAND nand.Config
	FTL  ftl.Config
	PCIe PCIe

	// ReadBufferPages bounds how many NAND pages one command can hold in
	// controller DRAM at once; larger multi-page commands process in
	// batches.
	ReadBufferPages int
	// FirmwareBlockOverhead is per-command FTL/firmware processing for
	// block commands; FirmwareFineOverhead for the leaner fine-read path.
	FirmwareBlockOverhead sim.Time
	FirmwareFineOverhead  sim.Time
	// ExtractOverhead is the engine's per-range scatter cost (Figure 4
	// step 3c).
	ExtractOverhead sim.Time
	// CMBBytes sizes the Controller Memory Buffer used by the 2B-SSD
	// baselines.
	CMBBytes int
	// WriteBufferPages enables the controller-DRAM write buffer: writes
	// acknowledge after the host DMA and destage to NAND in the background;
	// OpFlush drains synchronously. 0 disables (writes program NAND
	// inline), the calibrated default.
	WriteBufferPages int

	// ECCRetrySteps bounds the read-retry ladder the ECC engine walks when
	// an injected raw-bit-error burst exceeds the default correction
	// strength; each step re-senses the page (full tR + transfer). A page
	// still failing past the ladder is uncorrectable. 0 means no retries:
	// any ECC hit is immediately uncorrectable.
	ECCRetrySteps int
	// ECCUncorrectableFrac is the fraction of the injected-severity
	// spectrum that exhausts the whole ladder and still fails.
	ECCUncorrectableFrac float64

	// LinkArbitration models the PCIe link as a serially occupied
	// resource: DMA bursts and MMIO transactions queue FIFO behind
	// in-flight transfers, so overlapping commands see real link
	// contention. Off (the default), bursts overlap freely — the additive
	// model every closed-loop experiment was calibrated on.
	LinkArbitration bool
}

// DefaultConfig mirrors the paper's platform.
func DefaultConfig() Config {
	return Config{
		NAND:                  nand.DefaultConfig(),
		FTL:                   ftl.DefaultConfig(),
		PCIe:                  DefaultPCIe(),
		ReadBufferPages:       64,
		FirmwareBlockOverhead: 3 * sim.Microsecond,
		FirmwareFineOverhead:  1 * sim.Microsecond,
		ExtractOverhead:       300 * sim.Nanosecond,
		CMBBytes:              4 << 20,
		ECCRetrySteps:         4,
		ECCUncorrectableFrac:  0.02,
	}
}

// Stats counts controller activity.
type Stats struct {
	BlockReadCmds  uint64
	FineReadCmds   uint64
	WriteCmds      uint64
	TrimCmds       uint64
	FlushCmds      uint64
	PagesLoaded    uint64 // NAND pages brought into the read buffer
	PagesDestaged  uint64 // write-buffer pages flushed to NAND
	BytesToHost    uint64 // PCIe device->host
	BytesFromHost  uint64 // PCIe host->device
	CMBPageLoads   uint64 // pages loaded into the CMB for 2B-SSD reads
	MMIOBytesRead  uint64
	RangesExtract  uint64 // fine ranges scattered by the read engine
	InfoRecordsRun uint64
}

// Controller is the device. It implements nvme.Device.
type Controller struct {
	cfg Config
	fl  *ftl.FTL
	arr *nand.Array

	hmbRegion *hmb.Region // nil until EnableHMB

	cmb      []byte
	cmbSlots int
	cmbNext  int
	cmbPages []uint64 // lba resident in each slot (for assertions)

	wbuf    []wbEntry
	wbufIdx map[uint64]int

	readBuf []byte // controller-DRAM staging for fine reads (ReadBufferPages pages)

	// Fault recovery counters, zero while no injector is armed. They are
	// atomic so telemetry probes can sample them; they live here (not in
	// Stats) because Stats is copied by value.
	fltECCRetry    telemetry.Counter
	fltUncorrect   telemetry.Counter
	fltRingCorrupt telemetry.Counter
	fltDMACorrupt  telemetry.Counter
	fltProgRetry   telemetry.Counter

	stats  Stats
	ins    *telemetry.Instruments
	dmaRes *resource.Timeline // PCIe link occupancy (nil = off)
	link   sim.Resource       // contended link state (LinkArbitration)
}

// linkSpan schedules a link transfer of duration dur requested at time at,
// returning its [start, end] window. With LinkArbitration the transfer
// queues behind in-flight link work; otherwise it starts immediately.
func (c *Controller) linkSpan(at, dur sim.Time) (start, end sim.Time) {
	if c.cfg.LinkArbitration {
		return c.link.Acquire(at, dur)
	}
	return at, at + dur
}

// LinkWaitTime reports the cumulative time transfers queued for the link
// (always zero unless LinkArbitration is on).
func (c *Controller) LinkWaitTime() sim.Time { return c.link.WaitTime() }

// New builds the full device stack: NAND array, FTL, controller. Every
// layer reads its instruments from ins (nil is all off). With a resource
// tracker in ins the PCIe link ("pcie.dma", covering DMA bursts and MMIO
// transactions) registers first, then the NAND channels and dies.
func New(cfg Config, ins *telemetry.Instruments) (*Controller, error) {
	ins = ins.OrOff()
	dmaRes := ins.Resources.Register(ResDMALink)
	arr, err := nand.New(cfg.NAND, ins)
	if err != nil {
		return nil, err
	}
	return newController(cfg, arr, ins, dmaRes)
}

// NewWithArray builds a controller over an existing NAND array (tests use
// this to pre-mark bad blocks). The link timeline registers after the
// array's own.
func NewWithArray(cfg Config, arr *nand.Array, ins *telemetry.Instruments) (*Controller, error) {
	ins = ins.OrOff()
	return newController(cfg, arr, ins, ins.Resources.Register(ResDMALink))
}

func newController(cfg Config, arr *nand.Array, ins *telemetry.Instruments, dmaRes *resource.Timeline) (*Controller, error) {
	if cfg.ReadBufferPages <= 0 {
		return nil, errors.New("ssd: ReadBufferPages must be positive")
	}
	if cfg.PCIe.DMABandwidthMBps <= 0 || cfg.PCIe.MMIOPayload <= 0 {
		return nil, errors.New("ssd: PCIe config incomplete")
	}
	if cfg.CMBBytes < cfg.NAND.PageSize {
		return nil, fmt.Errorf("ssd: CMB %d smaller than one page", cfg.CMBBytes)
	}
	fl, err := ftl.New(arr, cfg.FTL, ins)
	if err != nil {
		return nil, err
	}
	if cfg.WriteBufferPages < 0 {
		return nil, errors.New("ssd: negative write buffer")
	}
	c := &Controller{
		cfg:      cfg,
		fl:       fl,
		arr:      arr,
		cmb:      make([]byte, cfg.CMBBytes),
		cmbSlots: cfg.CMBBytes / cfg.NAND.PageSize,
		wbufIdx:  make(map[uint64]int),
		readBuf:  make([]byte, cfg.ReadBufferPages*cfg.NAND.PageSize),
		ins:      ins,
		dmaRes:   dmaRes,
	}
	c.cmbPages = make([]uint64, c.cmbSlots)
	for i := range c.cmbPages {
		c.cmbPages[i] = ^uint64(0)
	}
	return c, nil
}

// FTL exposes the translation layer (the filesystem preload path and tests
// need it).
func (c *Controller) FTL() *ftl.FTL { return c.fl }

// Array exposes the NAND array.
func (c *Controller) Array() *nand.Array { return c.arr }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Blame labels for the controller's own resources. ResDMALink matches the
// "pcie.dma" resource timeline; ResFirmware names the controller CPU,
// which has no occupancy timeline (firmware time is per-command, not a
// shared contended unit in this model).
const (
	ResDMALink  = "pcie.dma"
	ResFirmware = "cpu.fw"
)

// PageSize reports the device's page size.
func (c *Controller) PageSize() int { return c.cfg.NAND.PageSize }

// LogicalPages reports exported capacity in pages.
func (c *Controller) LogicalPages() uint64 { return c.fl.LogicalPages() }

// EnableHMB attaches the host memory buffer region, modeling the NVMe
// Set-Features handshake at initialization (§3.1.1): the standing DMA
// mapping is established once, so per-access fine reads pay no mapping
// cost afterwards.
func (c *Controller) EnableHMB(r *hmb.Region) {
	c.hmbRegion = r
}

// HMBEnabled reports whether the HMB handshake happened.
func (c *Controller) HMBEnabled() bool { return c.hmbRegion != nil }

// Execute implements nvme.Device.
func (c *Controller) Execute(now sim.Time, cmd *nvme.Command) nvme.Completion {
	switch cmd.Op {
	case nvme.OpRead:
		return c.execBlockRead(now, cmd)
	case nvme.OpWrite:
		if c.cfg.WriteBufferPages > 0 {
			return c.execBufferedWrite(now, cmd)
		}
		return c.execWrite(now, cmd)
	case nvme.OpTrim:
		return c.execTrim(now, cmd)
	case nvme.OpFlush:
		return c.execFlush(now)
	case nvme.OpFineRead:
		return c.execFineRead(now, cmd)
	default:
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
}

func statusFor(err error) nvme.Status {
	switch {
	case errors.Is(err, ftl.ErrBadLBA):
		return nvme.StatusLBAOutOfRange
	case errors.Is(err, ftl.ErrUnmapped):
		return nvme.StatusUnmapped
	case errors.Is(err, nvme.ErrUncorrectable):
		return nvme.StatusMediaError
	default:
		return nvme.StatusInternal
	}
}

// execBlockRead serves a conventional multi-page read: all pages issue to
// the NAND array at once (channel parallelism emerges from the array's
// resource model), then the aggregate DMAs to the host buffer.
func (c *Controller) execBlockRead(now sim.Time, cmd *nvme.Command) nvme.Completion {
	ps := c.cfg.NAND.PageSize
	if cmd.Pages <= 0 || len(cmd.Data) < cmd.Pages*ps {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.BlockReadCmds++
	start := now + c.cfg.FirmwareBlockOverhead
	c.ins.Stages.MarkRes(telemetry.StageFirmware, start, ResFirmware)

	var moved uint64
	maxDone := start
	for batch := 0; batch < cmd.Pages; batch += c.cfg.ReadBufferPages {
		batchEnd := batch + c.cfg.ReadBufferPages
		if batchEnd > cmd.Pages {
			batchEnd = cmd.Pages
		}
		issueAt := maxDone
		if batch == 0 {
			issueAt = start
		}
		for i := batch; i < batchEnd; i++ {
			lba := cmd.LBA + uint64(i)
			done, loaded, err := c.readLBAInto(issueAt, lba, cmd.Data[i*ps:(i+1)*ps])
			if err != nil {
				// A failed read still waits for the racing loads it already
				// issued: the command completes no earlier than any of them.
				if done < maxDone {
					done = maxDone
				}
				return nvme.Completion{Status: statusFor(err), Done: done}
			}
			if done > maxDone {
				maxDone = done
			}
			if loaded {
				c.stats.PagesLoaded++
			}
		}
	}
	moved = uint64(cmd.Pages * ps)
	dmaStart, done := c.linkSpan(maxDone, c.cfg.PCIe.dmaTime(int(moved)))
	c.ins.Stages.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(dmaStart, done)
	c.stats.BytesToHost += moved
	if tr := c.ins.Tracer; tr.Enabled() {
		tr.Span(telemetry.TrackSSD, "read.firmware", now, start)
		tr.Span(telemetry.TrackSSD, "read.nand", start, maxDone)
		tr.Span(telemetry.TrackSSD, "read.dma", dmaStart, done)
	}
	return nvme.Completion{Status: nvme.StatusOK, Done: done, BytesMoved: moved}
}

// execWrite persists page-aligned data: DMA from host, then program via the
// FTL (which may trigger GC, visible in the completion time).
func (c *Controller) execWrite(now sim.Time, cmd *nvme.Command) nvme.Completion {
	ps := c.cfg.NAND.PageSize
	if cmd.Pages <= 0 || len(cmd.Data) != cmd.Pages*ps {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.WriteCmds++
	fwDone := now + c.cfg.FirmwareBlockOverhead
	dmaStart, hostDone := c.linkSpan(fwDone, c.cfg.PCIe.dmaTime(len(cmd.Data)))
	c.ins.Stages.MarkRes(telemetry.StageFirmware, fwDone, ResFirmware)
	c.ins.Stages.MarkRes(telemetry.StageDMA, hostDone, ResDMALink)
	c.dmaRes.Add(dmaStart, hostDone)
	t := hostDone
	c.stats.BytesFromHost += uint64(len(cmd.Data))
	for i := 0; i < cmd.Pages; i++ {
		done, err := c.programLBA(t, cmd.LBA+uint64(i), cmd.Data[i*ps:(i+1)*ps])
		if err != nil {
			return nvme.Completion{Status: statusFor(err), Done: t}
		}
		t = done
	}
	if tr := c.ins.Tracer; tr.Enabled() {
		tr.Span(telemetry.TrackSSD, "write.dma", now, hostDone)
		tr.Span(telemetry.TrackSSD, "write.program", hostDone, t)
	}
	return nvme.Completion{Status: nvme.StatusOK, Done: t, BytesMoved: uint64(len(cmd.Data))}
}

func (c *Controller) execTrim(now sim.Time, cmd *nvme.Command) nvme.Completion {
	if cmd.Pages <= 0 {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.TrimCmds++
	for i := 0; i < cmd.Pages; i++ {
		c.bufDrop(cmd.LBA + uint64(i))
		if err := c.fl.Trim(ftl.LBA(cmd.LBA + uint64(i))); err != nil {
			return nvme.Completion{Status: statusFor(err), Done: now}
		}
	}
	done := now + c.cfg.FirmwareBlockOverhead
	c.ins.Stages.MarkRes(telemetry.StageFirmware, done, ResFirmware)
	return nvme.Completion{Status: nvme.StatusOK, Done: done}
}

// execFineRead is the Fine-Grained Read Engine (Figure 4). One command
// serves one reconstructed application read: (1) load the referenced NAND
// pages into the read buffer, (2) consume the pending Info Area record for
// the destination, (3) extract the demanded byte range across the loaded
// pages and DMA only those bytes into the HMB, then bump the ring head.
func (c *Controller) execFineRead(now sim.Time, cmd *nvme.Command) nvme.Completion {
	if c.hmbRegion == nil {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	if len(cmd.FineLBAs) == 0 || len(cmd.FineLBAs) > c.cfg.ReadBufferPages {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	rec, err := c.hmbRegion.Info().Consume()
	if err != nil {
		if errors.Is(err, hmb.ErrCorruptRecord) {
			// The record is consumed (the ring must not wedge) but its
			// fields cannot be trusted; the host re-serves via block I/O.
			c.fltRingCorrupt.Inc()
			rejectAt := now + c.cfg.FirmwareFineOverhead
			c.ins.Stages.MarkRes(telemetry.StageFirmware, rejectAt, ResFirmware)
			return nvme.Completion{Status: nvme.StatusCorruptRing, Done: rejectAt}
		}
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.InfoRecordsRun++
	if rec.LBA != cmd.FineLBAs[0] {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	ps := c.cfg.NAND.PageSize
	if rec.ByteOff < 0 || rec.ByteLen <= 0 || rec.ByteOff >= ps ||
		rec.ByteOff+rec.ByteLen > len(cmd.FineLBAs)*ps {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.FineReadCmds++
	start := now + c.cfg.FirmwareFineOverhead
	c.ins.Stages.MarkRes(telemetry.StageFirmware, start, ResFirmware)

	// Phase 1: load pages into the controller read buffer; they issue
	// together and race across channels. Pages land contiguously, so the
	// extract phase is one range copy.
	maxDone := start
	for i, lba := range cmd.FineLBAs {
		dst := c.readBuf[i*ps : (i+1)*ps]
		done, loaded, err := c.readLBAInto(start, lba, dst)
		if err != nil {
			// As in the block path: the command outlives its racing loads.
			if done < maxDone {
				done = maxDone
			}
			return nvme.Completion{Status: statusFor(err), Done: done}
		}
		if done > maxDone {
			maxDone = done
		}
		if loaded {
			c.stats.PagesLoaded++
		}
	}

	// Phase 3: extract the demanded range (may cross page boundaries) and
	// scatter it to the HMB destination. Under fault injection the device
	// checksums the payload before the DMA; the host recomputes it over
	// the landed bytes, so an in-flight bit flip is detected, not served.
	payload := c.readBuf[rec.ByteOff : rec.ByteOff+rec.ByteLen]
	var paySum uint32
	if c.ins.Injector.Enabled() {
		paySum = fault.Sum32(payload)
	}
	if err := c.hmbRegion.WriteAt(rec.Dest, payload); err != nil {
		return nvme.Completion{Status: nvme.StatusInternal, Done: maxDone}
	}
	if out := c.ins.Injector.Check(fault.SiteNVMeDMA, rec.LBA); out.Hit {
		c.fltDMACorrupt.Inc()
		c.corruptHMB(rec.Dest, rec.ByteLen, out.Sev)
	}
	dmaStart, done := c.linkSpan(maxDone+c.cfg.ExtractOverhead, c.cfg.PCIe.dmaTime(rec.ByteLen))
	c.ins.Stages.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(dmaStart, done)
	c.stats.RangesExtract++
	c.stats.BytesToHost += uint64(rec.ByteLen)
	if tr := c.ins.Tracer; tr.Enabled() {
		tr.Span(telemetry.TrackSSD, "fine.firmware", now, start)
		tr.Span(telemetry.TrackSSD, "fine.load", start, maxDone)
		tr.Span(telemetry.TrackSSD, "fine.extract", maxDone, done)
	}
	return nvme.Completion{
		Status:     nvme.StatusOK,
		Done:       done,
		BytesMoved: uint64(rec.ByteLen),
		PayloadSum: paySum,
	}
}

// corruptHMB flips one bit of a landed DMA payload in the HMB region,
// modeling in-flight corruption the link CRC missed.
func (c *Controller) corruptHMB(dest, n int, sev float64) {
	window, err := c.hmbRegion.Slice(dest, n)
	if err != nil {
		return
	}
	bit := int(sev * float64(n*8))
	if bit >= n*8 {
		bit = n*8 - 1
	}
	window[bit/8] ^= 1 << (bit % 8)
}

// --- CMB mechanics for the 2B-SSD baselines -------------------------------

// LoadToCMB brings the page backing lba into a CMB slot (2B-SSD's first
// step: "SSD controller reads pages from flash chips to the CMB"). Slot
// reuse rotates; there is no caching, faithfully to the baseline.
func (c *Controller) LoadToCMB(now sim.Time, lba uint64) (slot int, done sim.Time, err error) {
	ps := c.cfg.NAND.PageSize
	slot = c.cmbNext
	dst := c.cmb[slot*ps : (slot+1)*ps]
	if done, _, err = c.readLBAInto(now, lba, dst); err != nil {
		return 0, done, err
	}
	c.cmbNext = (c.cmbNext + 1) % c.cmbSlots
	c.cmbPages[slot] = lba
	c.stats.CMBPageLoads++
	return slot, done, nil
}

// MMIORead transfers len(buf) bytes from a CMB slot to the host through
// non-posted MMIO transactions. Returns the completion time.
func (c *Controller) MMIORead(now sim.Time, slot, off int, buf []byte) (sim.Time, error) {
	if err := c.checkCMBRange(slot, off, len(buf)); err != nil {
		return now, err
	}
	base := slot * c.cfg.NAND.PageSize
	copy(buf, c.cmb[base+off:])
	c.stats.MMIOBytesRead += uint64(len(buf))
	c.stats.BytesToHost += uint64(len(buf))
	mmioStart, done := c.linkSpan(now, c.cfg.PCIe.mmioTime(len(buf)))
	c.ins.Stages.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(mmioStart, done)
	return done, nil
}

// DMAReadFromCMB transfers len(buf) bytes from a CMB slot to the host by
// DMA. The caller (the 2B-SSD DMA baseline) adds its per-access mapping
// cost on top; this method charges only the link.
func (c *Controller) DMAReadFromCMB(now sim.Time, slot, off int, buf []byte) (sim.Time, error) {
	if err := c.checkCMBRange(slot, off, len(buf)); err != nil {
		return now, err
	}
	base := slot * c.cfg.NAND.PageSize
	copy(buf, c.cmb[base+off:])
	c.stats.BytesToHost += uint64(len(buf))
	dmaStart, done := c.linkSpan(now, c.cfg.PCIe.dmaTime(len(buf)))
	c.ins.Stages.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(dmaStart, done)
	return done, nil
}

func (c *Controller) checkCMBRange(slot, off, n int) error {
	ps := c.cfg.NAND.PageSize
	if slot < 0 || slot >= c.cmbSlots {
		return fmt.Errorf("ssd: CMB slot %d out of range", slot)
	}
	if off < 0 || n <= 0 || off+n > ps {
		return fmt.Errorf("ssd: CMB range [%d,%d) outside page", off, off+n)
	}
	if c.cmbPages[slot] == ^uint64(0) {
		return errors.New("ssd: CMB slot not loaded")
	}
	return nil
}

// PCIeModel exposes the link cost model (baselines and the latency
// experiment use it directly).
func (c *Controller) PCIeModel() PCIe { return c.cfg.PCIe }

// PeekLBA reads len(buf) bytes at byte offset off within the page backing
// lba, without consuming virtual time or counting traffic. It is the
// simulator's content oracle: the host uses it to reconstruct clean
// page-cache pages (which are metadata-only to keep multi-gigabyte working
// sets cheap) and tests use it to verify end-to-end data paths.
func (c *Controller) PeekLBA(lba uint64, off int, buf []byte) error {
	if data, ok := c.bufLookup(lba); ok {
		if off < 0 || off+len(buf) > len(data) {
			return nand.ErrOutOfRange
		}
		copy(buf, data[off:])
		return nil
	}
	ppa, err := c.fl.Translate(ftl.LBA(lba))
	if err != nil {
		return err
	}
	return c.arr.PeekRange(ppa, off, buf)
}
