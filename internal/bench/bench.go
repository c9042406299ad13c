// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (§4) — Figures 1, 6, 7, 8, 9 and Tables
// 2, 3, 4 — plus ablation sweeps over Pipette's design choices. Each
// experiment builds fresh per-engine systems, replays the paper's workload,
// and prints a paper-style table.
//
// Absolute numbers depend on the latency model (see EXPERIMENTS.md for the
// calibration discussion); the harness is judged on shape: who wins, by
// roughly what factor, where the crossovers fall.
package bench

import (
	"bytes"
	"errors"
	"fmt"

	"pipette/internal/baseline"
	"pipette/internal/fault"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/report"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// Scale sets the experiment size. Paper scale is 2.5 M requests over a
// ~2.9 GiB file (the file size Table 2's block-I/O traffic implies); the
// quick scale preserves every ratio (requests per page, cache fractions) at
// 1/24 the size so shapes are unchanged.
type Scale struct {
	Name     string
	Requests int

	FilePages      uint64 // synthetic file size in 4 KiB pages
	PageCachePages int    // host page-cache budget
	FGRCDataBytes  int    // fine-grained read cache arena

	RecTableBytes int64  // recommender embedding store
	GraphNodes    uint64 // social-graph size
	AppRequests   int    // requests for the real-app experiments

	// Figure 8 sweep: LatencyFilePages is a hot region small enough that
	// the fine cache holds every range at every request size, while
	// LatencyPCPages keeps the page cache an order of magnitude smaller —
	// the memory regime where the paper's steady-state latencies (~2 us
	// Pipette vs ~67 us block) are reproducible.
	LatencySizes     []int
	LatencyFilePages uint64
	LatencyPCPages   int
	LatencyRequests  int
	LatencyWarmup    int

	// KV experiment: records preloaded into the log-structured store and
	// operations replayed per YCSB workload.
	KVRecords  uint64
	KVRequests int

	// qdepth experiment: the open-loop saturation sweep. QDepths are the
	// admission queue-depth bounds (max in-flight requests), QDepthRates
	// the offered Poisson arrival rates in ops/s (ascending, so the knee
	// search walks the curve left to right), QDepthRequests the requests
	// per cell.
	QDepths        []int
	QDepthRates    []float64
	QDepthRequests int

	// cluster experiment: the sharded serving tier. ClusterShards members,
	// each a private SSD stack sized for ClusterShardBytes of live records;
	// ClusterReplicas are the replication factors swept, ClusterSkews the
	// hot tenant's Zipf thetas (0 = uniform), ClusterTenants the tenant
	// count, ClusterRecords the records preloaded per tenant,
	// ClusterRequests the replay length per cell, ClusterRate the offered
	// Poisson arrival rate in ops/s, ClusterDepth/ClusterQueue the
	// per-shard in-flight and FIFO bounds, and ClusterTenantRate the
	// per-tenant token-bucket rate (ops/s).
	ClusterShards     int
	ClusterReplicas   []int
	ClusterSkews      []float64
	ClusterTenants    int
	ClusterRecords    uint64
	ClusterRequests   int
	ClusterRate       float64
	ClusterDepth      int
	ClusterQueue      int
	ClusterTenantRate float64
	ClusterShardBytes int64

	// Fault injection: Fault is empty by default (the Nop injector, zero
	// overhead, byte-identical output); the faults experiment overrides it
	// per sweep level. FaultSeed drives the deterministic decision streams.
	Fault     fault.Profile
	FaultSeed uint64
}

// FullScale mirrors the paper.
func FullScale() Scale {
	return Scale{
		Name:              "full",
		Requests:          2_500_000,
		FilePages:         761_242,
		PageCachePages:    256 << 10, // 1 GiB
		FGRCDataBytes:     256 << 20,
		RecTableBytes:     4 << 30,
		GraphNodes:        24 << 20,
		AppRequests:       2_500_000,
		LatencySizes:      []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		LatencyFilePages:  12 << 10,
		LatencyPCPages:    1 << 10,
		LatencyRequests:   100_000,
		LatencyWarmup:     200_000,
		KVRecords:         1_000_000,
		KVRequests:        1_000_000,
		QDepths:           []int{1, 8, 64, 256},
		QDepthRates:       []float64{25_000, 100_000, 400_000, 1_600_000, 6_400_000},
		QDepthRequests:    200_000,
		ClusterShards:     16,
		ClusterReplicas:   []int{1, 2, 3},
		ClusterSkews:      []float64{0, 0.99},
		ClusterTenants:    8,
		ClusterRecords:    65_536,
		ClusterRequests:   200_000,
		ClusterRate:       150_000,
		ClusterDepth:      32,
		ClusterQueue:      128,
		ClusterTenantRate: 40_000,
		ClusterShardBytes: 32 << 20,
		FaultSeed:         0x5eed,
	}
}

// QuickScale is the default: ~1/24 of the paper with ratios preserved.
func QuickScale() Scale {
	return Scale{
		Name:              "quick",
		Requests:          104_000,
		FilePages:         31_718,
		PageCachePages:    10 << 10, // 40 MiB
		FGRCDataBytes:     12 << 20,
		RecTableBytes:     768 << 20,
		GraphNodes:        2 << 20,
		AppRequests:       180_000,
		LatencySizes:      []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		LatencyFilePages:  768,
		LatencyPCPages:    96,
		LatencyRequests:   5_000,
		LatencyWarmup:     10_000,
		KVRecords:         60_000,
		KVRequests:        60_000,
		QDepths:           []int{1, 8, 64},
		QDepthRates:       []float64{25_000, 100_000, 400_000, 1_600_000, 6_400_000},
		QDepthRequests:    20_000,
		ClusterShards:     8,
		ClusterReplicas:   []int{1, 2, 3},
		ClusterSkews:      []float64{0, 0.99},
		ClusterTenants:    4,
		ClusterRecords:    8_192,
		ClusterRequests:   20_000,
		ClusterRate:       60_000,
		ClusterDepth:      16,
		ClusterQueue:      64,
		ClusterTenantRate: 20_000,
		ClusterShardBytes: 8 << 20,
		FaultSeed:         0x5eed,
	}
}

// TinyScale is for tests of the harness itself.
func TinyScale() Scale {
	return Scale{
		Name:              "tiny",
		Requests:          6_000,
		FilePages:         1_830,
		PageCachePages:    600,
		FGRCDataBytes:     1 << 20,
		RecTableBytes:     48 << 20,
		GraphNodes:        160 << 10,
		AppRequests:       12_000,
		LatencySizes:      []int{8, 128, 1024, 4096},
		LatencyFilePages:  48,
		LatencyPCPages:    8,
		LatencyRequests:   400,
		LatencyWarmup:     1_200,
		KVRecords:         4_000,
		KVRequests:        3_000,
		QDepths:           []int{1, 16},
		QDepthRates:       []float64{50_000, 400_000, 3_200_000, 12_800_000},
		QDepthRequests:    2_500,
		ClusterShards:     4,
		ClusterReplicas:   []int{1, 2},
		ClusterSkews:      []float64{0, 0.99},
		ClusterTenants:    2,
		ClusterRecords:    2_048,
		ClusterRequests:   1_500,
		ClusterRate:       30_000,
		ClusterDepth:      8,
		ClusterQueue:      16,
		ClusterTenantRate: 6_000,
		ClusterShardBytes: 4 << 20,
		FaultSeed:         0x5eed,
	}
}

// FileSize reports the synthetic file size in bytes.
func (s Scale) FileSize() int64 { return int64(s.FilePages) * 4096 }

// stackConfig builds the per-engine system configuration for this scale.
func (s Scale) stackConfig(fileSize int64) baseline.StackConfig {
	cfg := baseline.DefaultStackConfig(fileSize)
	cfg.VFS.PageCachePages = s.PageCachePages
	cfg.Core.HMB.DataBytes = s.FGRCDataBytes
	cfg.Core.OverflowMaxBytes = s.FGRCDataBytes
	cfg.Core.PageCacheFloorPages = s.PageCachePages / 8
	cfg.FaultProfile = s.Fault
	cfg.FaultSeed = s.FaultSeed
	return cfg
}

// newEngine builds the idx'th engine of EngineNames over a private system.
// Cells construct their engine themselves so expensive setup (NAND preload)
// parallelizes with everything else.
func newEngine(idx int, cfg baseline.StackConfig) (baseline.Engine, error) {
	var (
		e   baseline.Engine
		err error
	)
	switch idx {
	case 0:
		if e, err = baseline.NewBlockIO(cfg); err != nil {
			return nil, fmt.Errorf("bench: block i/o: %w", err)
		}
	case 1:
		e, err = baseline.NewTwoBSSD(cfg, baseline.MMIO)
	case 2:
		e, err = baseline.NewTwoBSSD(cfg, baseline.DMA)
	case 3:
		e, err = baseline.NewPipetteNoCache(cfg)
	case 4:
		e, err = baseline.NewPipette(cfg)
	default:
		return nil, fmt.Errorf("bench: no engine %d", idx)
	}
	if err != nil {
		return nil, err
	}
	if fr := armedFlight(); fr != nil {
		e.SetTracer(fr)
	}
	return e, nil
}

// engineSet builds the paper's five engines over identical private systems.
func engineSet(cfg baseline.StackConfig) ([]baseline.Engine, error) {
	engines := make([]baseline.Engine, len(EngineNames))
	for i := range engines {
		e, err := newEngine(i, cfg)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return engines, nil
}

// RunOpts tunes one replay.
type RunOpts struct {
	Warmup      int // requests replayed before measurement starts
	VerifyEvery int // verify read contents every N reads (0 = off)
	// Sampler, when set, is ticked with the virtual completion time after
	// every measured request, producing the time-series CSV.
	Sampler *telemetry.Sampler
	// TolerateMediaErrors counts uncorrectable media errors as lost
	// requests and keeps replaying instead of failing the run — the right
	// semantics when a fault profile is armed. Off, any error is fatal.
	TolerateMediaErrors bool
}

// Result is one engine × workload measurement.
type Result struct {
	Snapshot metrics.Snapshot
	Hist     metrics.Histogram

	// Stages is the engine's per-request time attribution over the whole
	// replay (warmup included — the account spans every request the stack
	// served, which is what its conservation invariant covers).
	Stages telemetry.StageSnapshot
	// Resources is the engine's per-resource occupancy (NAND channels and
	// dies, PCIe DMA link, NVMe ring) over the replay.
	Resources *resource.Snapshot

	// Open-loop replay metadata, zero/empty for closed-loop runs: the
	// offered arrival rate (ops/s), the admission queue-depth bound, and
	// the arrival process name.
	Offered  float64
	Depth    int
	Arrivals string

	// Lost counts requests that failed with uncorrectable media errors
	// under TolerateMediaErrors; the snapshot's Ops is goodput (requests
	// minus Lost), and lost requests do not enter the latency histogram.
	Lost uint64
	// Rejected counts open-loop arrivals bounced off a full admission FIFO
	// (OpenLoopOpts.MaxQueue). Rejected requests never dispatch: they are
	// excluded from goodput and from the latency histogram.
	Rejected uint64

	// Tail is the cell's slow-request capture (top-K exemplars plus the
	// blame composition over the slowest ~1%); Heat is its completion-time
	// × latency heatmap. Both cover only the measured phase and are nil
	// for replays that collect no telemetry.
	Tail *telemetry.TailSnapshot
	Heat *telemetry.HeatSnapshot
}

// tailTopK is how many slowest-request exemplars each cell captures;
// tailKeep sizes the kept set the tail-blame composition aggregates over
// (~the slowest 1%, never fewer than the exemplars).
const tailTopK = 5

func tailKeep(requests int) int {
	if k := requests / 100; k > tailTopK {
		return k
	}
	return tailTopK
}

// replayBufs holds one replay's read buffer, oracle scratch and write
// payload, grown to fit the largest request seen.
type replayBufs struct{ buf, want, payload []byte }

func newReplayBufs() *replayBufs {
	b := &replayBufs{buf: make([]byte, 4096), want: make([]byte, 4096), payload: make([]byte, 4096)}
	for i := range b.payload {
		b.payload[i] = byte(i*7 + 13)
	}
	return b
}

// grow doubles the buffers until they hold n bytes; the payload doubles by
// repeating itself, so write contents stay deterministic.
func (b *replayBufs) grow(n int) {
	for n > len(b.buf) {
		b.buf = make([]byte, 2*len(b.buf))
		b.want = make([]byte, len(b.buf))
	}
	for n > len(b.payload) {
		b.payload = append(b.payload, b.payload...)
	}
}

// serve issues req against e at now and returns its completion time.
func (b *replayBufs) serve(e baseline.Engine, now sim.Time, req workload.Request) (sim.Time, error) {
	b.grow(req.Size)
	if req.Write {
		return e.WriteAt(now, b.payload[:req.Size], req.Off)
	}
	return e.ReadAt(now, b.buf[:req.Size], req.Off)
}

// measured is a replay's measured window: cur's traffic and cache counters
// minus base, the snapshot taken when measurement began, with the window's
// op count and virtual duration.
func measured(cur, base metrics.Snapshot, ops uint64, elapsed sim.Time) metrics.Snapshot {
	subIO(&cur.IO, base.IO)
	subCache(&cur.PageCache, base.PageCache)
	subCache(&cur.FineCache, base.FineCache)
	cur.Ops = ops
	cur.Elapsed = elapsed
	return cur
}

// Run replays requests from gen against e and measures the paper's
// metrics. Write requests carry a deterministic payload.
func Run(e baseline.Engine, gen workload.Generator, requests int, opts RunOpts) (*Result, error) {
	var now sim.Time
	b := newReplayBufs()

	// Warmup phase: replay without measuring.
	for i := 0; i < opts.Warmup; i++ {
		var err error
		if now, err = b.serve(e, now, gen.Next()); err != nil {
			if opts.TolerateMediaErrors && errors.Is(err, nvme.ErrUncorrectable) {
				continue
			}
			return nil, fmt.Errorf("bench: warmup request %d: %w", i, err)
		}
	}
	base := e.Snapshot()
	start := now

	// Tail capture and the latency heatmap attach after warmup so both
	// cover exactly the measured phase; the stage account itself keeps
	// spanning the whole replay (that is what conservation covers).
	tail := telemetry.NewTailRecorder(tailTopK, tailKeep(requests))
	e.Stages().SetTail(tail)
	defer e.Stages().SetTail(nil)
	grid := telemetry.NewLatencyGrid(now)

	res := &Result{}
	for i := 0; i < requests; i++ {
		req := gen.Next()
		before := now
		var err error
		if now, err = b.serve(e, now, req); err != nil {
			if opts.TolerateMediaErrors && errors.Is(err, nvme.ErrUncorrectable) {
				res.Lost++ // the failed request still consumed virtual time
				continue
			}
			return nil, fmt.Errorf("bench: request %d (%+v): %w", i, req, err)
		}
		if !req.Write && opts.VerifyEvery > 0 && i%opts.VerifyEvery == 0 {
			want := b.want[:req.Size]
			if err := e.Oracle(want, req.Off); err != nil {
				return nil, err
			}
			if !bytes.Equal(b.buf[:req.Size], want) {
				return nil, fmt.Errorf("bench: %s returned wrong bytes at %d (+%d)",
					e.Name(), req.Off, req.Size)
			}
		}
		res.Hist.Observe(now - before)
		grid.Observe(now, now-before)
		if opts.Sampler != nil {
			opts.Sampler.Tick(now)
		}
	}

	res.Tail = tail.Snapshot()
	res.Heat = grid.Snapshot()
	res.Stages = e.Stages().Snapshot()
	res.Resources = e.Resources().Snapshot(now)
	res.Snapshot = measured(e.Snapshot(), base, uint64(requests)-res.Lost, now-start)
	return res, nil
}

// ExportRun converts one cell measurement into a report-bundle run record,
// the pipette-report input format.
func ExportRun(name, wl string, r *Result) report.Run {
	exemplars, blame, kept := report.TailRows(r.Tail)
	return report.Run{
		Name:      name,
		Workload:  wl,
		Requests:  r.Snapshot.Ops,
		ElapsedNs: int64(r.Snapshot.Elapsed),
		OpsPerSec: r.Snapshot.ThroughputOpsPerSec(),
		ReadAmp:   r.Snapshot.IO.ReadAmplification(),
		Latency:   report.PercentilesOf(&r.Hist),
		StageNs:   int64(r.Stages.Sum()),
		Stages:    report.StageRows(&r.Stages),
		Exemplars: exemplars,
		TailBlame: blame,
		TailKept:  kept,
		Heat:      r.Heat,
		Resources: r.Resources,

		OfferedOpsPerSec: r.Offered,
		QueueDepth:       r.Depth,
		Arrivals:         r.Arrivals,
		Lost:             r.Lost,
		Rejected:         r.Rejected,
	}
}

func addIO(a *metrics.IO, b metrics.IO) {
	a.BytesRequested += b.BytesRequested
	a.BytesTransferred += b.BytesTransferred
	a.BytesWritten += b.BytesWritten
	a.BlockReads += b.BlockReads
	a.FineReads += b.FineReads
	a.Writes += b.Writes
}

func addCache(a *metrics.Cache, b metrics.Cache) {
	a.Hits += b.Hits
	a.Accesses += b.Accesses
	a.Insertions += b.Insertions
	a.Evictions += b.Evictions
	a.Bypasses += b.Bypasses
}

func subIO(a *metrics.IO, b metrics.IO) {
	a.BytesRequested -= b.BytesRequested
	a.BytesTransferred -= b.BytesTransferred
	a.BytesWritten -= b.BytesWritten
	a.BlockReads -= b.BlockReads
	a.FineReads -= b.FineReads
	a.Writes -= b.Writes
}

func subCache(a *metrics.Cache, b metrics.Cache) {
	a.Hits -= b.Hits
	a.Accesses -= b.Accesses
	a.Insertions -= b.Insertions
	a.Evictions -= b.Evictions
	a.Bypasses -= b.Bypasses
}

// EngineNames is the canonical row order of the paper's tables.
var EngineNames = []string{
	"Block I/O", "2B-SSD MMIO", "2B-SSD DMA", "Pipette w/o cache", "Pipette",
}
