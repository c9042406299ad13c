// Package nand models a NAND flash array: the geometry (channels, ways,
// planes, blocks, pages), the physical timing (tR/tPROG/tBERS per cell type
// plus channel bus transfer), and the physical constraints (erase-before-
// program, in-order programming within a block).
//
// The paper's prototype device is an 8-channel, 8-way NVMe SSD (Figure 5);
// the defaults mirror it. Timing accumulates on sim resources so that
// channel-level parallelism and contention emerge naturally.
//
// Capacity is sparse: only programmed pages store real bytes. Pages
// "preloaded" with file data (the multi-gigabyte datasets the paper's
// workloads read) return deterministic seed-derived content instead of
// materializing hundreds of gigabytes of host RAM; see Preload.
package nand

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pipette/internal/bitset"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// CellType selects a NAND latency profile.
type CellType int

// Supported cell types, matching the paper's prototype media options.
const (
	SLC CellType = iota
	MLC
	TLC
)

// String returns the conventional cell-type name.
func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// Timing holds the per-operation latencies of one cell type.
type Timing struct {
	ReadPage   sim.Time // tR: cell array -> page register
	Program    sim.Time // tPROG
	EraseBlock sim.Time // tBERS
}

// timings are typical datasheet values for each generation.
var timings = map[CellType]Timing{
	SLC: {ReadPage: 25 * sim.Microsecond, Program: 200 * sim.Microsecond, EraseBlock: 2 * sim.Millisecond},
	MLC: {ReadPage: 50 * sim.Microsecond, Program: 600 * sim.Microsecond, EraseBlock: 5 * sim.Millisecond},
	TLC: {ReadPage: 68 * sim.Microsecond, Program: 900 * sim.Microsecond, EraseBlock: 10 * sim.Millisecond},
}

// TimingFor returns the latency profile of a cell type.
func TimingFor(c CellType) Timing { return timings[c] }

// rbers are datasheet raw bit error rates per cell type: the probability
// a single sensed bit is wrong before ECC. Denser cells store more levels
// per cell and are orders of magnitude noisier.
var rbers = map[CellType]float64{
	SLC: 1e-9,
	MLC: 1e-7,
	TLC: 1e-6,
}

// RBERFor returns the raw bit error rate of a cell type. The fault
// injector's rber* rules are resolved against this.
func RBERFor(c CellType) float64 { return rbers[c] }

// Config describes an array. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	Channels       int // independent buses
	WaysPerChannel int // dies per channel
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // bytes

	Cell         CellType
	ChannelMBps  float64 // per-channel bus bandwidth, MiB/s
	ReadErrRate  float64 // probability a read needs one read-retry
	ContentSeed  uint64  // seed for deterministic preloaded content
	RetryPenalty sim.Time
}

// DefaultConfig mirrors the paper's YS9203 platform (8 channels x 8 ways)
// with a scaled-down block count so tests construct quickly; the benchmark
// harness sizes BlocksPerPlane to the dataset. MLC timing is the default:
// the paper's platform lists SLC/MLC/TLC media and its measured block-read
// latencies (Figure 8, ~67 us) are consistent with tR ≈ 50 us.
func DefaultConfig() Config {
	return Config{
		Channels:       8,
		WaysPerChannel: 8,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  256,
		PageSize:       4096,
		Cell:           MLC,
		ChannelMBps:    400,
		ContentSeed:    0x9153_e2b1,
		RetryPenalty:   TimingFor(MLC).ReadPage,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0, c.WaysPerChannel <= 0, c.PlanesPerDie <= 0,
		c.BlocksPerPlane <= 0, c.PagesPerBlock <= 0:
		return errors.New("nand: all geometry dimensions must be positive")
	case c.PageSize <= 0 || c.PageSize%8 != 0:
		return fmt.Errorf("nand: page size %d must be a positive multiple of 8", c.PageSize)
	case c.ChannelMBps <= 0:
		return errors.New("nand: channel bandwidth must be positive")
	case c.ReadErrRate < 0 || c.ReadErrRate >= 1:
		return fmt.Errorf("nand: read error rate %g out of [0,1)", c.ReadErrRate)
	}
	if _, ok := timings[c.Cell]; !ok {
		return fmt.Errorf("nand: unknown cell type %v", c.Cell)
	}
	return nil
}

// Dies reports the number of dies in the array.
func (c Config) Dies() int { return c.Channels * c.WaysPerChannel }

// BlocksPerDie reports blocks in one die.
func (c Config) BlocksPerDie() int { return c.PlanesPerDie * c.BlocksPerPlane }

// TotalBlocks reports the number of physical blocks.
func (c Config) TotalBlocks() int { return c.Dies() * c.BlocksPerDie() }

// PagesPerDie reports pages in one die.
func (c Config) PagesPerDie() int { return c.BlocksPerDie() * c.PagesPerBlock }

// TotalPages reports the number of physical pages.
func (c Config) TotalPages() uint64 {
	return uint64(c.Dies()) * uint64(c.PagesPerDie())
}

// CapacityBytes reports raw capacity.
func (c Config) CapacityBytes() uint64 {
	return c.TotalPages() * uint64(c.PageSize)
}

// transferTime is the channel bus occupancy to move n bytes.
func (c Config) transferTime(n int) sim.Time {
	return sim.Time(float64(n) / (c.ChannelMBps * (1 << 20)) * float64(sim.Second))
}

// PPA is a physical page address, a flat index over the whole array.
// Encoding: (((die * planes + plane) * blocksPerPlane + block) *
// pagesPerBlock) + page, with die = channel*ways + way.
type PPA uint64

// PPAOf builds a PPA from coordinates. Panics on out-of-range coordinates;
// PPAs are produced by the FTL, which owns the geometry.
func (c Config) PPAOf(channel, way, plane, block, page int) PPA {
	if channel < 0 || channel >= c.Channels || way < 0 || way >= c.WaysPerChannel ||
		plane < 0 || plane >= c.PlanesPerDie || block < 0 || block >= c.BlocksPerPlane ||
		page < 0 || page >= c.PagesPerBlock {
		panic(fmt.Sprintf("nand: PPA coordinates out of range (%d,%d,%d,%d,%d)", channel, way, plane, block, page))
	}
	die := channel*c.WaysPerChannel + way
	return PPA(((uint64(die)*uint64(c.PlanesPerDie)+uint64(plane))*uint64(c.BlocksPerPlane)+uint64(block))*uint64(c.PagesPerBlock) + uint64(page))
}

// Decompose splits a PPA into coordinates.
func (c Config) Decompose(p PPA) (channel, way, plane, block, page int) {
	v := uint64(p)
	page = int(v % uint64(c.PagesPerBlock))
	v /= uint64(c.PagesPerBlock)
	block = int(v % uint64(c.BlocksPerPlane))
	v /= uint64(c.BlocksPerPlane)
	plane = int(v % uint64(c.PlanesPerDie))
	v /= uint64(c.PlanesPerDie)
	die := int(v)
	return die / c.WaysPerChannel, die % c.WaysPerChannel, plane, block, page
}

// ChannelOf reports the channel a PPA lives on.
func (c Config) ChannelOf(p PPA) int {
	ch, _, _, _, _ := c.Decompose(p)
	return ch
}

// DieOf reports the die index of a PPA.
func (c Config) DieOf(p PPA) int {
	ch, way, _, _, _ := c.Decompose(p)
	return ch*c.WaysPerChannel + way
}

// BlockID identifies a physical block (die, plane, block) as a flat index.
type BlockID uint32

// BlockOf reports the flat block id containing a PPA.
func (c Config) BlockOf(p PPA) BlockID {
	return BlockID(uint64(p) / uint64(c.PagesPerBlock))
}

// FirstPPA returns the PPA of page 0 of a block.
func (c Config) FirstPPA(b BlockID) PPA {
	return PPA(uint64(b) * uint64(c.PagesPerBlock))
}

// Stats counts physical operations.
type Stats struct {
	Reads       uint64
	Programs    uint64
	Erases      uint64
	ReadRetries uint64
	BytesOut    uint64 // bytes moved over channel buses to the controller
	BytesIn     uint64
}

// Errors returned by array operations.
var (
	ErrNotErased   = errors.New("nand: programming a page that is not erased")
	ErrOutOfOrder  = errors.New("nand: pages within a block must be programmed in order")
	ErrBadBlock    = errors.New("nand: operation on a bad block")
	ErrBadLength   = errors.New("nand: data length does not match page size")
	ErrOutOfRange  = errors.New("nand: address out of range")
	ErrNotProgram  = errors.New("nand: reading an unwritten page")
	ErrEraseActive = errors.New("nand: block has programmed pages; erase first")
)

// blockState tracks per-block programming progress.
type blockState struct {
	nextPage int  // next programmable page index
	bad      bool // manufacturing/grown bad block
}

// Array is the flash device. Operations take the current virtual time and
// return the operation's completion time; the caller (SSD controller)
// advances its own clock.
type Array struct {
	cfg   Config
	dies  *sim.ResourceSet // die occupancy: tR / tPROG / tBERS
	buses *sim.ResourceSet // channel bus occupancy: data transfer

	data    map[PPA][]byte // programmed pages with materialized content
	loaded  bitset.Set     // preloaded pages (deterministic content)
	blocks  []blockState
	rng     *sim.RNG
	timing  Timing
	stats   Stats
	pattern patternSource

	ins       *telemetry.Instruments
	dieTracks []string // per-die span track names ("nand/d3")
	chTracks  []string // per-channel span track names ("nand/ch0")

	chRes  []*resource.Timeline // per-channel occupancy timelines (nil = off)
	dieRes []*resource.Timeline // per-die occupancy timelines
}

// New creates an array. The whole device starts erased. With a resource
// tracker in ins it registers one timeline per channel bus ("nand.ch0")
// and then one per die ("nand.ch0.w0" — channel × way); a nil ins is all
// off.
func New(cfg Config, ins *telemetry.Instruments) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		cfg:     cfg,
		dies:    sim.NewResourceSet(cfg.Dies()),
		buses:   sim.NewResourceSet(cfg.Channels),
		data:    make(map[PPA][]byte),
		loaded:  bitset.New(int(cfg.TotalPages())),
		blocks:  make([]blockState, cfg.TotalBlocks()),
		rng:     sim.NewRNG(cfg.ContentSeed ^ 0xfeed_beef),
		timing:  timings[cfg.Cell],
		pattern: patternSource{seed: cfg.ContentSeed, pageSize: cfg.PageSize},
		ins:     ins.OrOff(),
	}
	// Span track names are precomputed so the hot path does no formatting.
	a.chTracks = make([]string, cfg.Channels)
	for ch := range a.chTracks {
		a.chTracks[ch] = fmt.Sprintf("nand/ch%d", ch)
	}
	a.dieTracks = make([]string, cfg.Dies())
	for die := range a.dieTracks {
		a.dieTracks[die] = fmt.Sprintf("nand/d%d", die)
	}
	if rt := a.ins.Resources; rt != nil {
		a.chRes = make([]*resource.Timeline, cfg.Channels)
		for ch := range a.chRes {
			a.chRes[ch] = rt.Register(fmt.Sprintf("nand.ch%d", ch))
		}
		a.dieRes = make([]*resource.Timeline, cfg.Dies())
		for die := range a.dieRes {
			a.dieRes[die] = rt.Register(fmt.Sprintf("nand.ch%d.w%d",
				die/cfg.WaysPerChannel, die%cfg.WaysPerChannel))
		}
	}
	return a, nil
}

// ChannelBusy reports the cumulative busy time of one channel bus — the
// numerator of a per-channel utilization probe.
func (a *Array) ChannelBusy(ch int) sim.Time { return a.buses.Get(ch).BusyTime() }

// DieBusy reports the cumulative busy time of one die.
func (a *Array) DieBusy(die int) sim.Time { return a.dies.Get(die).BusyTime() }

// DieWaitTime reports the cumulative queueing delay across all dies:
// virtual time operations spent waiting for a busy die. With overlapping
// in-flight commands this is the device-side queueing the open-loop
// harness surfaces; a closed-loop single-stream replay keeps it near zero.
func (a *Array) DieWaitTime() sim.Time { return a.dies.WaitTime() }

// BusWaitTime reports the cumulative queueing delay across the channel
// buses.
func (a *Array) BusWaitTime() sim.Time { return a.buses.WaitTime() }

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// Stats returns a copy of the operation counters.
func (a *Array) Stats() Stats { return a.stats }

// Timing returns the active latency profile.
func (a *Array) Timing() Timing { return a.timing }

func (a *Array) checkPPA(p PPA) error {
	if uint64(p) >= a.cfg.TotalPages() {
		return fmt.Errorf("%w: ppa %d >= %d", ErrOutOfRange, p, a.cfg.TotalPages())
	}
	return nil
}

// MarkBad marks a block as unusable; the FTL skips bad blocks at format.
func (a *Array) MarkBad(b BlockID) error {
	if int(b) >= len(a.blocks) {
		return ErrOutOfRange
	}
	a.blocks[b].bad = true
	return nil
}

// IsBad reports whether a block is marked bad.
func (a *Array) IsBad(b BlockID) bool {
	return int(b) < len(a.blocks) && a.blocks[b].bad
}

// ReadPage senses one page and transfers it to the controller. It returns
// the page content and the completion time. The die is occupied for tR,
// then the channel bus for the transfer; contention with other in-flight
// operations delays completion.
func (a *Array) ReadPage(now sim.Time, p PPA) ([]byte, sim.Time, error) {
	buf := make([]byte, a.cfg.PageSize)
	done, err := a.ReadPageInto(now, p, buf)
	if err != nil {
		return nil, done, err
	}
	return buf, done, nil
}

// ReadPageInto is ReadPage writing into a caller-owned page-sized buffer,
// the allocation-free form every hot read path uses.
func (a *Array) ReadPageInto(now sim.Time, p PPA, buf []byte) (sim.Time, error) {
	if err := a.checkPPA(p); err != nil {
		return now, err
	}
	if len(buf) != a.cfg.PageSize {
		return now, fmt.Errorf("%w: got %d, want %d", ErrBadLength, len(buf), a.cfg.PageSize)
	}
	b := a.cfg.BlockOf(p)
	if a.blocks[b].bad {
		return now, ErrBadBlock
	}
	_, _, _, _, page := a.cfg.Decompose(p)
	if page >= a.blocks[b].nextPage && !a.loaded.Get(int(p)) {
		return now, fmt.Errorf("%w: ppa %d", ErrNotProgram, p)
	}

	tR := a.timing.ReadPage
	if a.cfg.ReadErrRate > 0 && a.rng.Float64() < a.cfg.ReadErrRate {
		// Read-retry: the die re-senses with tuned thresholds. Modeled as
		// one extra array read; always succeeds (ECC recovers).
		tR += a.cfg.RetryPenalty
		a.stats.ReadRetries++
	}
	die, ch := a.cfg.DieOf(p), a.cfg.ChannelOf(p)
	senseStart, senseEnd := a.dies.Acquire(die, now, tR)
	txStart, done := a.buses.Acquire(ch, senseEnd, a.cfg.transferTime(a.cfg.PageSize))
	if tr := a.ins.Tracer; tr.Enabled() {
		tr.Span(a.dieTracks[die], "tR", senseStart, senseEnd)
		tr.Span(a.chTracks[ch], "xfer", txStart, done)
	}
	if a.dieRes != nil {
		a.dieRes[die].Add(senseStart, senseEnd)
		a.chRes[ch].Add(txStart, done)
	}

	a.stats.Reads++
	a.stats.BytesOut += uint64(a.cfg.PageSize)
	if d, ok := a.data[p]; ok {
		copy(buf, d)
	} else {
		a.pattern.fill(p, 0, buf)
	}
	return done, nil
}

// PeekRange returns len(buf) bytes of a page's content starting at off,
// without timing or stats — the oracle used by tests and by the host to
// verify end-to-end correctness. It does not require the page to be
// programmed (unwritten pages read as pattern content would).
func (a *Array) PeekRange(p PPA, off int, buf []byte) error {
	if err := a.checkPPA(p); err != nil {
		return err
	}
	if off < 0 || off+len(buf) > a.cfg.PageSize {
		return ErrOutOfRange
	}
	if d, ok := a.data[p]; ok {
		copy(buf, d[off:off+len(buf)])
		return nil
	}
	a.pattern.fill(p, off, buf)
	return nil
}

// ProgramPage writes one full page. NAND constraints are enforced: the
// target page must be erased, and pages within a block must be programmed
// in ascending order.
func (a *Array) ProgramPage(now sim.Time, p PPA, data []byte) (sim.Time, error) {
	if err := a.checkPPA(p); err != nil {
		return now, err
	}
	if len(data) != a.cfg.PageSize {
		return now, fmt.Errorf("%w: got %d, want %d", ErrBadLength, len(data), a.cfg.PageSize)
	}
	b := a.cfg.BlockOf(p)
	bs := &a.blocks[b]
	if bs.bad {
		return now, ErrBadBlock
	}
	_, _, _, _, page := a.cfg.Decompose(p)
	switch {
	case page < bs.nextPage:
		return now, fmt.Errorf("%w: page %d already programmed", ErrNotErased, page)
	case page > bs.nextPage:
		return now, fmt.Errorf("%w: page %d, expected %d", ErrOutOfOrder, page, bs.nextPage)
	}

	// Bus transfer into the page register, then the program pulse.
	die, ch := a.cfg.DieOf(p), a.cfg.ChannelOf(p)
	txStart, txEnd := a.buses.Acquire(ch, now, a.cfg.transferTime(a.cfg.PageSize))
	progStart, done := a.dies.Acquire(die, txEnd, a.timing.Program)
	if tr := a.ins.Tracer; tr.Enabled() {
		tr.Span(a.chTracks[ch], "xfer", txStart, txEnd)
		tr.Span(a.dieTracks[die], "tPROG", progStart, done)
	}
	if a.dieRes != nil {
		a.chRes[ch].Add(txStart, txEnd)
		a.dieRes[die].Add(progStart, done)
	}

	stored := make([]byte, len(data))
	copy(stored, data)
	a.data[p] = stored
	a.loaded.Clear(int(p))
	bs.nextPage = page + 1
	a.stats.Programs++
	a.stats.BytesIn += uint64(len(data))
	return done, nil
}

// EraseBlock erases a block, resetting its program pointer and dropping its
// contents.
func (a *Array) EraseBlock(now sim.Time, b BlockID) (sim.Time, error) {
	if int(b) >= len(a.blocks) {
		return now, ErrOutOfRange
	}
	bs := &a.blocks[b]
	if bs.bad {
		return now, ErrBadBlock
	}
	first := a.cfg.FirstPPA(b)
	for i := 0; i < a.cfg.PagesPerBlock; i++ {
		delete(a.data, first+PPA(i))
		a.loaded.Clear(int(first) + i)
	}
	bs.nextPage = 0
	die := a.cfg.DieOf(first)
	eraseStart, done := a.dies.Acquire(die, now, a.timing.EraseBlock)
	if tr := a.ins.Tracer; tr.Enabled() {
		tr.Span(a.dieTracks[die], "tBERS", eraseStart, done)
	}
	if a.dieRes != nil {
		a.dieRes[die].Add(eraseStart, done)
	}
	a.stats.Erases++
	return done, nil
}

// Preload marks a page as holding deterministic seed-derived content, as if
// it had been programmed, without materializing bytes or consuming virtual
// time. It is the setup path for the multi-gigabyte read-mostly datasets of
// the paper's workloads. The block's program pointer advances as for a real
// program so subsequent NAND constraints still hold.
func (a *Array) Preload(p PPA) error {
	if err := a.checkPPA(p); err != nil {
		return err
	}
	b := a.cfg.BlockOf(p)
	bs := &a.blocks[b]
	if bs.bad {
		return ErrBadBlock
	}
	_, _, _, _, page := a.cfg.Decompose(p)
	switch {
	case page < bs.nextPage:
		return fmt.Errorf("%w: page %d already programmed", ErrNotErased, page)
	case page > bs.nextPage:
		return fmt.Errorf("%w: page %d, expected %d", ErrOutOfOrder, page, bs.nextPage)
	}
	a.loaded.Set(int(p))
	bs.nextPage = page + 1
	return nil
}

// ProgrammedPages reports how many pages currently hold data (programmed or
// preloaded).
func (a *Array) ProgrammedPages() int { return len(a.data) + a.loaded.Count() }

// patternSource generates deterministic page content from (seed, ppa).
type patternSource struct {
	seed     uint64
	pageSize int
}

func (ps patternSource) word(p PPA, wordIdx int) uint64 {
	return sim.Mix64(ps.seed ^ uint64(p)<<20 ^ uint64(wordIdx) ^ 0xc0ffee)
}

func (ps patternSource) page(p PPA) []byte {
	out := make([]byte, ps.pageSize)
	ps.fill(p, 0, out)
	return out
}

// fill writes the pattern bytes of page p starting at byte offset off. The
// pattern is little-endian words of ps.word, so aligned spans are written
// eight bytes at a time; byte-at-a-time only at ragged edges.
func (ps patternSource) fill(p PPA, off int, buf []byte) {
	i := 0
	if r := off & 7; r != 0 {
		w := ps.word(p, off>>3)
		for b := r; b < 8 && i < len(buf); b++ {
			buf[i] = byte(w >> (8 * uint(b)))
			i++
		}
	}
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], ps.word(p, (off+i)>>3))
	}
	if i < len(buf) {
		w := ps.word(p, (off+i)>>3)
		for b := 0; i < len(buf); b++ {
			buf[i] = byte(w >> (8 * uint(b)))
			i++
		}
	}
}

// ExpectedContent is the package-level oracle for preloaded (never-written)
// page content, shared with the filesystem preload path and tests.
func ExpectedContent(seed uint64, pageSize int, p PPA, off int, buf []byte) {
	patternSource{seed: seed, pageSize: pageSize}.fill(p, off, buf)
}
