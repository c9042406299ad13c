// Package baseline assembles simulated storage stacks and implements the
// five engines the paper's evaluation compares (§4.1): conventional block
// I/O, 2B-SSD in its MMIO and DMA read modes, Pipette without its
// fine-grained read cache, and full Pipette.
//
// Build is the repository's one stack assembler. It builds the controller,
// NVMe driver, block layer, filesystem, VFS and optional fine-read core,
// handing each constructor a pointer to the stack's one
// telemetry.Instruments (tracer, stage account, resource tracker, fault
// injector). After Build only Stack.SetTracer and Stack.Arm change it. The
// public facade, the engines here, kv cells and cluster shards all hold a
// Stack, so runs are independent and instrumented alike. All five engines
// expose the same Engine interface to the benchmark harness.
package baseline

import (
	"errors"
	"fmt"

	"pipette/internal/blockdev"
	"pipette/internal/core"
	"pipette/internal/extfs"
	"pipette/internal/fault"
	"pipette/internal/ftl"
	"pipette/internal/metrics"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/telemetry"
	"pipette/internal/vfs"
)

// Engine is one system under test.
type Engine interface {
	Name() string
	// ReadAt serves one read; WriteAt one write. Both return the virtual
	// completion time.
	ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error)
	WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error)
	// Snapshot reports traffic and cache statistics accumulated so far
	// (ops/latency/elapsed are filled by the runner).
	Snapshot() metrics.Snapshot
	// Oracle fills buf with the authoritative current content at off —
	// cache-consistent for engines with caches — used by the harness to
	// verify correctness without timing.
	Oracle(buf []byte, off int64) error
	// SetTracer instruments every layer of the engine's private stack.
	SetTracer(tr telemetry.Tracer)
	// Probes returns the engine's sampled time series (hit ratios, read
	// amplification, per-channel utilization, ...).
	Probes() []telemetry.Probe
	// Faults aggregates the stack's fault-injection and recovery counters
	// (all zeros when the fault profile is empty).
	Faults() fault.Report
	// Stages exposes the engine's per-request stage account — the raw
	// material of the waterfall breakdown.
	Stages() *telemetry.StageAccount
	// Resources exposes the engine's resource-occupancy tracker (NAND
	// channels/dies, PCIe DMA link, NVMe ring).
	Resources() *resource.Tracker
}

// StackConfig configures one Build: the device, the host layers above it,
// and the engines' per-access costs.
type StackConfig struct {
	SSD        ssd.Config
	VFS        vfs.Config
	Block      blockdev.Config
	Core       core.Config
	NVMe       nvme.Costs
	Depth      int // per-pair queue depth
	QueuePairs int // NVMe SQ/CQ pairs (0 = default 4)
	// FileName names the preloaded workload file Build creates; empty
	// builds a stack without one (the KV store creates its own files).
	// FileSize sizes that file and DefaultStackConfig's provisioning.
	FileName string
	FileSize int64

	// TwoBSSD costs: the per-access critical-path setup the paper charges
	// 2B-SSD with (§2.2): a page fault before MMIO access, or a DMA
	// mapping before a DMA transfer.
	PageFault sim.Time
	DMAMap    sim.Time

	// FaultProfile configures deterministic fault injection across the
	// stack; the empty profile is the zero-cost default. FaultSeed drives
	// the per-site decision streams. The engines arm it at construction;
	// Build alone never does (see Stack.Arm).
	FaultProfile fault.Profile
	FaultSeed    uint64
}

// DefaultStackConfig sizes a stack for a dataset of fileSize bytes: the
// flash is provisioned ~1.5x the file and the defaults mirror the paper's
// platform.
func DefaultStackConfig(fileSize int64) StackConfig {
	scfg := ssd.DefaultConfig()
	// Provision just enough blocks for the file plus GC/write headroom —
	// the channel/way geometry (the paper's 8x8) stays fixed so
	// parallelism behaviour is scale-independent, while capacity tracks
	// the dataset to keep mapping-table memory proportional.
	pageBytes := int64(scfg.NAND.PageSize)
	needPages := fileSize/pageBytes + fileSize/(2*pageBytes) + 4096
	perDie := needPages/int64(scfg.NAND.Dies())/int64(scfg.NAND.PagesPerBlock) + 1
	perPlane := int(perDie)/scfg.NAND.PlanesPerDie + 1
	// The FTL needs GC reserve plus frontier per die.
	if min := ftl.DefaultConfig().GCFreeBlockLow + 3; perPlane < min {
		perPlane = min
	}
	scfg.NAND.BlocksPerPlane = perPlane
	return StackConfig{
		SSD:        scfg,
		VFS:        vfs.DefaultConfig(),
		Block:      blockdev.DefaultConfig(),
		Core:       core.DefaultConfig(),
		NVMe:       nvme.DefaultCosts(),
		Depth:      256,
		QueuePairs: 4,
		FileName:   "workload.dat",
		FileSize:   fileSize,
		PageFault:  3 * sim.Microsecond,
		DMAMap:     23 * sim.Microsecond,
	}
}

// Stack is one assembled private system: controller, NVMe driver, block
// layer, VFS and, on a fine stack, the Pipette core. Every layer holds a
// pointer to the stack's one Ins; after Build only SetTracer and Arm change
// it. Build is the only assembler in the repository; the facade, the
// baseline engines, kv cells and cluster shards all hold a Stack.
type Stack struct {
	Ctrl *ssd.Controller
	Drv  *nvme.Driver
	Blk  *blockdev.Layer
	V    *vfs.VFS
	Core *core.Pipette // nil unless built fine
	Ins  telemetry.Instruments

	// SA and Res alias Ins.Stages and Ins.Resources for the benchmark
	// harness under perfbench/, which reads them by these names; code in
	// this module uses Stages() and Resources().
	SA  *telemetry.StageAccount
	Res *resource.Tracker

	file *vfs.File // the preloaded workload file; nil without FileName
}

// Build assembles a stack from cfg. With a FileName it creates and
// preloads the workload file, opened fine-grained when fine is set. The
// stack's instruments start with the no-op tracer, a stage account, a
// resource tracker and no fault injector (see Arm).
func Build(cfg StackConfig, fine bool) (*Stack, error) {
	s := &Stack{Ins: telemetry.Instruments{
		Tracer:    telemetry.Nop(),
		Stages:    telemetry.NewStageAccount(),
		Resources: resource.NewTracker(),
	}}
	s.SA, s.Res = s.Ins.Stages, s.Ins.Resources
	if err := s.assemble(cfg, fine, &s.Ins); err != nil {
		return nil, err
	}
	return s, nil
}

// assemble builds the layers bottom-up, each reading its instruments from
// ins. Construction order is resource registration order: pcie.dma, the
// NAND channels, the NAND dies, then nvme.ring.
func (s *Stack) assemble(cfg StackConfig, fine bool, ins *telemetry.Instruments) error {
	if cfg.FileName != "" && cfg.FileSize <= 0 {
		return errors.New("baseline: FileSize must be positive")
	}
	ctrl, err := ssd.New(cfg.SSD, ins)
	if err != nil {
		return err
	}
	if cfg.FileName != "" && uint64(cfg.FileSize/int64(ctrl.PageSize())+1) > ctrl.LogicalPages() {
		return fmt.Errorf("baseline: file %d B exceeds device capacity %d pages",
			cfg.FileSize, ctrl.LogicalPages())
	}
	pairs := cfg.QueuePairs
	if pairs <= 0 {
		pairs = 4
	}
	drv := nvme.NewDriverQueues(ctrl, pairs, cfg.Depth, cfg.NVMe, ins)
	blk, err := blockdev.New(drv, ctrl.PageSize(), cfg.Block, ins)
	if err != nil {
		return err
	}
	v, err := vfs.New(extfs.New(ctrl), blk, cfg.VFS, ins)
	if err != nil {
		return err
	}
	s.Ctrl, s.Drv, s.Blk, s.V = ctrl, drv, blk, v
	if cfg.FileName != "" {
		flags := vfs.ReadWrite
		if fine {
			flags |= vfs.FineGrained
		}
		if s.file, err = v.Create(cfg.FileName, cfg.FileSize, extfs.CreateOpts{Preload: true}, flags); err != nil {
			return err
		}
	}
	if fine {
		s.Core, err = core.New(v, drv, cfg.Core, ins)
	}
	return err
}

// Arm installs a fault injector built from prof in the stack's instruments,
// where the controller, the VFS, the core and the HMB info ring read it:
// the one place an injector enters a stack. It resolves the nand.read
// rber* rule against the media's datasheet RBER and the bits sensed per
// page. It is a no-op for an empty profile or an already armed stack.
func (s *Stack) Arm(prof fault.Profile, seed uint64) {
	if s.Ins.Injector != nil {
		return
	}
	inj := prof.NewInjector(seed)
	geo := s.Ctrl.Array().Config()
	inj.ResolveRBER(fault.SiteNANDRead, nand.RBERFor(geo.Cell), geo.PageSize*8)
	s.Ins.Injector = inj
}

// Armed reports whether Arm installed an injector.
func (s *Stack) Armed() bool { return s.Ins.Injector != nil }

// Faults aggregates the stack's injection and recovery counters, including
// the core's fine-path fallbacks (all zeros until armed).
func (s *Stack) Faults() fault.Report {
	f := s.Ctrl.Faults()
	r := fault.Report{
		Injected:         s.Ins.Injector.TotalInjected(),
		ECCRetries:       f.ECCRetries,
		Uncorrectable:    f.Uncorrectable,
		RingCorruptions:  f.RingCorruptions,
		DMACorruptions:   f.DMACorruptions,
		ProgramRetries:   f.ProgramRetries,
		WritebackRetries: s.V.WritebackRetries(),
	}
	if s.Core != nil {
		r.RingFallbacks = s.Core.RingFallbacks()
		r.DMAFallbacks = s.Core.DMAFallbacks()
	}
	return r
}

// SetTracer instruments every layer of the stack, the core included; nil
// returns to the no-op default.
func (s *Stack) SetTracer(tr telemetry.Tracer) { s.Ins.Tracer = telemetry.OrNop(tr) }

// Stages exposes the per-request stage account.
func (s *Stack) Stages() *telemetry.StageAccount { return s.Ins.Stages }

// Resources exposes the resource-occupancy tracker.
func (s *Stack) Resources() *resource.Tracker { return s.Ins.Resources }

// Snapshot merges VFS and, on a fine stack, core statistics into one
// traffic and cache summary, so read amplification is comparable across
// every stack in the repository.
func (s *Stack) Snapshot(name string) metrics.Snapshot {
	pc := s.V.PageCache()
	hits, accesses, ins, evs := pc.Stats()
	snap := metrics.Snapshot{
		Name:      name,
		IO:        s.V.IO(),
		PageCache: metrics.Cache{Hits: hits, Accesses: accesses, Insertions: ins, Evictions: evs},
		MemoryMB:  float64(pc.MemoryBytes()) / (1 << 20),
	}
	if p := s.Core; p != nil {
		fio := p.IO()
		snap.IO.BytesTransferred += fio.BytesTransferred
		snap.IO.FineReads = fio.FineReads
		snap.FineCache = p.CacheStats()
		snap.MemoryMB += float64(p.MemoryBytes()) / (1 << 20)
	}
	return snap
}

// Probes builds the stack's time series: read amplification, page-cache
// hit ratio, the fine-path series on a fine stack (fine hit ratio, adaptive
// threshold, resident memory, overflow FIFO, HMB info-ring occupancy), the
// fault series once armed, and per-channel NAND bus utilization.
func (s *Stack) Probes() []telemetry.Probe {
	p := s.Core
	probes := []telemetry.Probe{
		telemetry.GaugeProbe("read_amp", func() float64 {
			io := s.V.IO()
			if p != nil {
				io.BytesTransferred += p.IO().BytesTransferred
			}
			return io.ReadAmplification()
		}),
		telemetry.GaugeProbe("pc_hit_ratio", func() float64 {
			hits, accesses, _, _ := s.V.PageCache().Stats()
			c := metrics.Cache{Hits: hits, Accesses: accesses}
			return c.HitRatio()
		}),
	}
	if p != nil {
		probes = append(probes,
			telemetry.GaugeProbe("fine_hit_ratio", func() float64 {
				c := p.CacheStats()
				return c.HitRatio()
			}),
			telemetry.GaugeProbe("threshold", func() float64 {
				return float64(p.Threshold())
			}),
			telemetry.GaugeProbe("fine_mem_bytes", func() float64 {
				return float64(p.MemoryBytes())
			}),
			telemetry.GaugeProbe("overflow_bytes", func() float64 {
				return float64(p.OverflowBytes())
			}),
			telemetry.GaugeProbe("hmb_info_pending", func() float64 {
				return float64(p.Region().Info().Pending())
			}),
		)
	}
	if inj := s.Ins.Injector; inj != nil {
		probes = append(probes,
			telemetry.GaugeProbe("fault.injected", func() float64 {
				return float64(inj.TotalInjected())
			}),
			telemetry.GaugeProbe("fault.ecc_retries", func() float64 {
				return float64(s.Ctrl.Faults().ECCRetries)
			}),
			telemetry.GaugeProbe("fault.uncorrectable", func() float64 {
				return float64(s.Ctrl.Faults().Uncorrectable)
			}),
			telemetry.GaugeProbe("fault.wb_retries", func() float64 {
				return float64(s.V.WritebackRetries())
			}),
		)
		if p != nil {
			probes = append(probes,
				telemetry.GaugeProbe("fault.fallbacks", func() float64 {
					return float64(p.RingFallbacks() + p.DMAFallbacks())
				}),
			)
		}
	}
	arr := s.Ctrl.Array()
	for ch := 0; ch < arr.Config().Channels; ch++ {
		ch := ch
		probes = append(probes, telemetry.RateProbe(
			fmt.Sprintf("ch%d_busy", ch),
			func() sim.Time { return arr.ChannelBusy(ch) }))
	}
	return probes
}

// ReadAt reads the workload file through the VFS (the stack must be built
// with a FileName).
func (s *Stack) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	return s.file.ReadFull(now, buf, off)
}

// WriteAt writes the workload file through the VFS.
func (s *Stack) WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error) {
	_, done, err := s.file.WriteAt(now, data, off)
	return done, err
}

// Sync exposes fsync of the workload file for harness phases.
func (s *Stack) Sync(now sim.Time) (sim.Time, error) { return s.file.Sync(now) }

// Oracle reads the workload file's authoritative content without timing.
// ReadAt through the VFS would disturb statistics; harness verification
// happens on read-only workloads or after Sync, so flash content is
// authoritative and Peek leaves the caches untouched.
func (s *Stack) Oracle(buf []byte, off int64) error {
	return s.V.FS().Peek(s.file.Inode(), off, buf)
}

// buildArmed is the baseline engines' constructor: Build, then arm the
// configured fault profile at construction.
func buildArmed(cfg StackConfig, fine bool) (*Stack, error) {
	s, err := Build(cfg, fine)
	if err != nil {
		return nil, err
	}
	s.Arm(cfg.FaultProfile, cfg.FaultSeed)
	return s, nil
}

// BlockIO is the conventional read path: page cache + read-ahead + block
// layer, no byte-granular anything.
type BlockIO struct {
	*Stack
}

// NewBlockIO builds the block I/O engine.
func NewBlockIO(cfg StackConfig) (*BlockIO, error) {
	s, err := buildArmed(cfg, false)
	if err != nil {
		return nil, err
	}
	return &BlockIO{s}, nil
}

// Name implements Engine.
func (e *BlockIO) Name() string { return "Block I/O" }

// Snapshot implements Engine.
func (e *BlockIO) Snapshot() metrics.Snapshot { return e.Stack.Snapshot(e.Name()) }
