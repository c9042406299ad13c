// Package hmb models the Host Memory Buffer: host DRAM that the host lends
// to the SSD controller at initialization, with a standing DMA mapping so
// neither side pays a per-access mapping cost afterwards (the key advantage
// Pipette has over 2B-SSD's CMB approach, §3.1.1).
//
// The region is partitioned exactly as the paper's Figure 3 shows:
//
//   - Info Area — a ring of records jointly managed by host and device.
//     The host appends a record (destination address, byte offset, byte
//     length) for each outstanding fine-grained read and bumps the tail;
//     the device consumes records while serving the reconstructed read and
//     bumps the head.
//   - Data Area — the arena the fine-grained read cache's slab allocator
//     carves up; the device DMAs demanded byte ranges directly into it.
//   - TempBuf Area — a rotating bounce buffer for low-reuse data that the
//     adaptive cache declines to admit, so cold data never pollutes the
//     Data Area.
package hmb

import (
	"errors"
	"fmt"

	"pipette/internal/fault"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// InfoRecord is one Info Area entry, written by the host's Constructor and
// consumed by the device's Fine-Grained Read Engine.
type InfoRecord struct {
	LBA     uint64 // logical page holding the data
	ByteOff int    // offset of the demanded range within the page
	ByteLen int    // length of the demanded range
	Dest    int    // destination offset within the HMB region

	// Sum seals the record against corruption while it sits in shared
	// host memory. Push fills it; Consume verifies it.
	Sum uint32
}

// recSum is the integrity checksum over a record's payload fields.
func recSum(rec InfoRecord) uint32 {
	h := sim.Mix64(rec.LBA)
	h = sim.Mix64(h ^ uint64(uint32(rec.ByteOff)))
	h = sim.Mix64(h ^ uint64(uint32(rec.ByteLen)))
	h = sim.Mix64(h ^ uint64(uint32(rec.Dest)))
	return uint32(h ^ h>>32)
}

// Ring errors.
var (
	ErrRingFull  = errors.New("hmb: info ring full")
	ErrRingEmpty = errors.New("hmb: info ring empty")
	// ErrCorruptRecord reports a consumed record whose checksum does not
	// cover its fields anymore. The head still advances past it — the
	// device must not wedge the ring on one bad entry — and the caller
	// re-serves the request through the block path.
	ErrCorruptRecord = errors.New("hmb: corrupt info record")
)

// InfoRing is the Info Area: a bounded ring with a host-owned tail and a
// device-owned head.
type InfoRing struct {
	records []InfoRecord
	head    uint32 // device-advanced: consumed
	tail    uint32 // host-advanced: produced

	ins *telemetry.Instruments
}

// corrupt flips one bit of one payload field, both selected by the
// injection severity draw.
func corrupt(rec *InfoRecord, sev float64) {
	bit := uint(sev*64) % 64
	switch uint(sev*251) % 4 {
	case 0:
		rec.LBA ^= 1 << bit
	case 1:
		rec.ByteOff ^= 1 << (bit % 30)
	case 2:
		rec.ByteLen ^= 1 << (bit % 30)
	default:
		rec.Dest ^= 1 << (bit % 30)
	}
}

// NewInfoRing creates a ring with the given number of record slots. With a
// fault injector in ins, records may corrupt between the host's append and
// the device's consume (hmb.ring); a nil ins is all off.
func NewInfoRing(slots int, ins *telemetry.Instruments) *InfoRing {
	if slots < 2 {
		panic("hmb: info ring needs >= 2 slots")
	}
	return &InfoRing{records: make([]InfoRecord, slots), ins: ins.OrOff()}
}

// Pending reports records produced but not yet consumed.
func (r *InfoRing) Pending() int { return int(r.tail - r.head) }

// Cap reports usable capacity.
func (r *InfoRing) Cap() int { return len(r.records) - 1 }

// Push appends a record and advances the tail (host side, Figure 4 step 3a).
// The record is sealed with its checksum; under fault injection it may then
// corrupt in place, modeling a flipped bit while the entry sits in shared
// host memory.
func (r *InfoRing) Push(rec InfoRecord) error {
	if r.Pending() >= r.Cap() {
		return ErrRingFull
	}
	rec.Sum = recSum(rec)
	if out := r.ins.Injector.Check(fault.SiteHMBRing, rec.LBA); out.Hit {
		corrupt(&rec, out.Sev)
	}
	r.records[r.tail%uint32(len(r.records))] = rec
	r.tail++
	return nil
}

// Consume removes the oldest record and advances the head (device side,
// Figure 4 step 3b). A record that fails its checksum is still consumed —
// the ring must not wedge — and returned alongside ErrCorruptRecord.
func (r *InfoRing) Consume() (InfoRecord, error) {
	if r.Pending() == 0 {
		return InfoRecord{}, ErrRingEmpty
	}
	rec := r.records[r.head%uint32(len(r.records))]
	r.head++
	if rec.Sum != recSum(rec) {
		return rec, ErrCorruptRecord
	}
	return rec, nil
}

// Head reports the device-advanced consume counter (the host reads this to
// learn which requests completed).
func (r *InfoRing) Head() uint32 { return r.head }

// Config sizes the HMB region.
type Config struct {
	DataBytes    int // Data Area size (slab arena)
	TempBufBytes int // TempBuf Area size
	TempSlot     int // max bytes of one temp transfer (>= largest fine read)
	InfoSlots    int // Info Area ring capacity
}

// DefaultConfig sizes a region matching the paper's 64 MB HMB mapping
// region (Figure 5), mostly Data Area.
func DefaultConfig() Config {
	return Config{
		DataBytes:    60 << 20,
		TempBufBytes: 1 << 20,
		TempSlot:     4096,
		InfoSlots:    1024,
	}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.DataBytes <= 0:
		return errors.New("hmb: DataBytes must be positive")
	case c.TempSlot <= 0:
		return errors.New("hmb: TempSlot must be positive")
	case c.TempBufBytes < c.TempSlot:
		return fmt.Errorf("hmb: TempBufBytes %d < TempSlot %d", c.TempBufBytes, c.TempSlot)
	case c.InfoSlots < 2:
		return errors.New("hmb: InfoSlots must be >= 2")
	}
	return nil
}

// Region is the shared memory block. Offsets are region-relative; the Data
// Area starts at offset 0 and the TempBuf Area follows it.
type Region struct {
	cfg  Config
	buf  []byte
	info *InfoRing

	tempBase int
	tempNext int // rotating allocation cursor within the TempBuf Area
}

// New allocates a region; its info ring reads the fault injector from ins
// (nil is all off).
func New(cfg Config, ins *telemetry.Instruments) (*Region, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Region{
		cfg:      cfg,
		buf:      make([]byte, cfg.DataBytes+cfg.TempBufBytes),
		info:     NewInfoRing(cfg.InfoSlots, ins),
		tempBase: cfg.DataBytes,
	}, nil
}

// Config returns the sizing used.
func (r *Region) Config() Config { return r.cfg }

// Info returns the Info Area ring.
func (r *Region) Info() *InfoRing { return r.info }

// DataSize reports the Data Area size (the slab arena the cache manages).
func (r *Region) DataSize() int { return r.cfg.DataBytes }

// AllocTemp reserves a TempBuf destination of n bytes and returns its
// region offset. Slots rotate; data in a temp slot is only valid until the
// ring wraps, which is fine because the host copies it out immediately on
// completion (that is the point of the TempBuf: no residency).
func (r *Region) AllocTemp(n int) (int, error) {
	if n <= 0 || n > r.cfg.TempSlot {
		return 0, fmt.Errorf("hmb: temp alloc %d outside (0, %d]", n, r.cfg.TempSlot)
	}
	if r.tempNext+n > r.cfg.TempBufBytes {
		r.tempNext = 0
	}
	off := r.tempBase + r.tempNext
	r.tempNext += n
	return off, nil
}

// InTempArea reports whether a region offset falls inside the TempBuf Area.
func (r *Region) InTempArea(off int) bool {
	return off >= r.tempBase && off < len(r.buf)
}

// WriteAt copies data into the region at off — the device's DMA landing.
func (r *Region) WriteAt(off int, data []byte) error {
	if off < 0 || off+len(data) > len(r.buf) {
		return fmt.Errorf("hmb: write [%d,%d) outside region of %d", off, off+len(data), len(r.buf))
	}
	copy(r.buf[off:], data)
	return nil
}

// ReadAt copies len(buf) bytes from the region at off — the host's load.
func (r *Region) ReadAt(off int, buf []byte) error {
	if off < 0 || off+len(buf) > len(r.buf) {
		return fmt.Errorf("hmb: read [%d,%d) outside region of %d", off, off+len(buf), len(r.buf))
	}
	copy(buf, r.buf[off:])
	return nil
}

// Slice exposes a window of the region without copying (the slab-managed
// Data Area uses this for in-place item access).
func (r *Region) Slice(off, n int) ([]byte, error) {
	if off < 0 || off+n > len(r.buf) {
		return nil, fmt.Errorf("hmb: slice [%d,%d) outside region of %d", off, off+n, len(r.buf))
	}
	return r.buf[off : off+n : off+n], nil
}
