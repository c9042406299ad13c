package bench

import (
	"sort"
	"strings"
	"sync"
	"time"

	"pipette/internal/fault"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/resource"
	"pipette/internal/telemetry"
)

// Live is the harness's bridge into the unified metrics registry: one
// instance aggregates every finished cell's counters — SSD traffic, cache
// activity, KV log maintenance, fault/recovery ledgers — into live
// Prometheus families, and tracks per-cell completion for the /progress
// endpoint. Cells stay fully private simulations; they report into Live
// only at completion (atomic adds), so a scraper polling /metrics at any
// rate observes the suite's progress without perturbing a single cell —
// the rendered tables are byte-identical with or without a listener.
type Live struct {
	reg *telemetry.Registry

	cellsDone *telemetry.Counter
	opsDone   *telemetry.Counter
	cellWall  *telemetry.LiveHistogram

	ssdBlockReads, ssdFineReads, ssdWrites                  *telemetry.Counter
	bytesRequested, bytesTransferred, bytesWritten          *telemetry.Counter
	pcHits, pcAccesses, fineHits, fineAccesses              *telemetry.Counter
	kvPuts, kvGets, kvRotations, kvCompactions              *telemetry.Counter
	kvBytesWritten, kvBytesRead                             *telemetry.Counter
	idxNodeReads, idxBloomChecks, idxBloomNegative          *telemetry.Counter
	idxCacheHits, idxCacheMisses                            *telemetry.Counter
	idxBytesRead, idxBytesWritten                           *telemetry.Counter
	fInjected, fECCRetries, fUncorrectable                  *telemetry.Counter
	fRingFallbacks, fDMAFallbacks, fProgRetries, fWBRetries *telemetry.Counter

	mu      sync.Mutex
	total   int
	cells   map[string]*cellState
	resBusy map[string]*telemetry.Counter
}

// cellState is one cell's /progress record.
type cellState struct {
	Label       string  `json:"label"`
	State       string  `json:"state"` // pending | running | done | failed
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	started     time.Time
}

// NewLive registers the harness's metric families on reg.
func NewLive(reg *telemetry.Registry) *Live {
	l := &Live{reg: reg, cells: make(map[string]*cellState), resBusy: make(map[string]*telemetry.Counter)}
	l.cellsDone = reg.Counter("bench_cells_done_total", "experiment cells completed")
	l.opsDone = reg.Counter("bench_ops_total", "measured simulated operations completed by finished cells")
	l.cellWall = reg.Histogram("bench_cell_wall_seconds", "wall-clock cost of one cell",
		[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	reg.GaugeFunc("bench_cells_total", "experiment cells scheduled", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.total)
	})
	reg.GaugeFunc("bench_cells_running", "experiment cells currently executing", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		n := 0
		for _, c := range l.cells {
			if c.State == "running" {
				n++
			}
		}
		return float64(n)
	})

	l.ssdBlockReads = reg.Counter("ssd_reads_total", "read commands issued to the device", telemetry.L("interface", "block"))
	l.ssdFineReads = reg.Counter("ssd_reads_total", "read commands issued to the device", telemetry.L("interface", "fine"))
	l.ssdWrites = reg.Counter("ssd_writes_total", "write commands issued to the device")
	l.bytesRequested = reg.Counter("ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "requested"))
	l.bytesTransferred = reg.Counter("ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "transferred"))
	l.bytesWritten = reg.Counter("ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "written"))

	l.pcHits = reg.Counter("cache_hits_total", "cache hits", telemetry.L("cache", "page"))
	l.pcAccesses = reg.Counter("cache_accesses_total", "cache accesses", telemetry.L("cache", "page"))
	l.fineHits = reg.Counter("cache_hits_total", "cache hits", telemetry.L("cache", "fine"))
	l.fineAccesses = reg.Counter("cache_accesses_total", "cache accesses", telemetry.L("cache", "fine"))

	l.kvPuts = reg.Counter("kv_ops_total", "KV store operations", telemetry.L("op", "put"))
	l.kvGets = reg.Counter("kv_ops_total", "KV store operations", telemetry.L("op", "get"))
	l.kvRotations = reg.Counter("kv_rotations_total", "KV log segments sealed")
	l.kvCompactions = reg.Counter("kv_compactions_total", "KV segments compacted")
	l.kvBytesWritten = reg.Counter("kv_log_bytes_total", "KV value-log traffic", telemetry.L("direction", "written"))
	l.kvBytesRead = reg.Counter("kv_log_bytes_total", "KV value-log traffic", telemetry.L("direction", "read"))

	l.idxNodeReads = reg.Counter("kv_index_node_reads_total", "B+-tree node fetches paid by KV lookups")
	l.idxBloomChecks = reg.Counter("kv_index_bloom_total", "LSM run-filter membership decisions", telemetry.L("result", "checked"))
	l.idxBloomNegative = reg.Counter("kv_index_bloom_total", "LSM run-filter membership decisions", telemetry.L("result", "negative"))
	l.idxCacheHits = reg.Counter("kv_index_cache_total", "LSM block-cache outcomes", telemetry.L("result", "hit"))
	l.idxCacheMisses = reg.Counter("kv_index_cache_total", "LSM block-cache outcomes", telemetry.L("result", "miss"))
	l.idxBytesRead = reg.Counter("kv_index_bytes_total", "KV index-file traffic", telemetry.L("direction", "read"))
	l.idxBytesWritten = reg.Counter("kv_index_bytes_total", "KV index-file traffic", telemetry.L("direction", "written"))

	l.fInjected = reg.Counter("fault_injected_total", "fault decisions drawn across all sites")
	l.fECCRetries = reg.Counter("fault_ecc_retries_total", "NAND read-retry steps charged by the ECC ladder")
	l.fUncorrectable = reg.Counter("fault_uncorrectable_total", "reads that exhausted the retry budget")
	l.fRingFallbacks = reg.Counter("fault_fallbacks_total", "fine reads re-served via block I/O", telemetry.L("path", "ring"))
	l.fDMAFallbacks = reg.Counter("fault_fallbacks_total", "fine reads re-served via block I/O", telemetry.L("path", "dma"))
	l.fProgRetries = reg.Counter("fault_retries_total", "commands re-issued after a fault", telemetry.L("site", "program"))
	l.fWBRetries = reg.Counter("fault_retries_total", "commands re-issued after a fault", telemetry.L("site", "writeback"))
	return l
}

// Registry returns the registry Live reports into.
func (l *Live) Registry() *telemetry.Registry { return l.reg }

// AddSnapshot folds one finished cell's traffic and cache counters into
// the ssd and cache families.
func (l *Live) AddSnapshot(s *metrics.Snapshot) {
	if l == nil || s == nil {
		return
	}
	l.ssdBlockReads.Add(s.IO.BlockReads)
	l.ssdFineReads.Add(s.IO.FineReads)
	l.ssdWrites.Add(s.IO.Writes)
	l.bytesRequested.Add(s.IO.BytesRequested)
	l.bytesTransferred.Add(s.IO.BytesTransferred)
	l.bytesWritten.Add(s.IO.BytesWritten)
	l.pcHits.Add(s.PageCache.Hits)
	l.pcAccesses.Add(s.PageCache.Accesses)
	l.fineHits.Add(s.FineCache.Hits)
	l.fineAccesses.Add(s.FineCache.Accesses)
}

// AddResources folds one finished cell's per-resource busy time into the
// bench_resource_busy_ns_total family: the channel buses and the host
// links. Per-die rows are skipped — a family of 64 way series would swamp
// the exposition, and the die detail lives in the run exports. Series are
// registered on first sight in the snapshot's (deterministic) resource
// order; every cell shares one layout, so whichever cell finishes first
// registers the same series in the same order.
func (l *Live) AddResources(s *resource.Snapshot) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	counters := make([]*telemetry.Counter, 0, len(s.Resources))
	values := make([]uint64, 0, len(s.Resources))
	for _, r := range s.Resources {
		if strings.Contains(r.Name, ".w") {
			continue
		}
		c, ok := l.resBusy[r.Name]
		if !ok {
			c = l.reg.Counter("bench_resource_busy_ns_total",
				"cumulative busy virtual time per simulated resource across finished cells",
				telemetry.L("resource", r.Name))
			l.resBusy[r.Name] = c
		}
		counters = append(counters, c)
		values = append(values, uint64(r.BusyNs))
	}
	l.mu.Unlock()
	for i, c := range counters {
		c.Add(values[i])
	}
}

// AddKV folds one finished cell's store counters into the kv family.
func (l *Live) AddKV(st kv.Stats) {
	if l == nil {
		return
	}
	l.kvPuts.Add(st.Puts)
	l.kvGets.Add(st.Gets)
	l.kvRotations.Add(st.Rotations)
	l.kvCompactions.Add(st.Compactions)
	l.kvBytesWritten.Add(st.BytesWritten)
	l.kvBytesRead.Add(st.BytesRead)
}

// AddIndex folds one finished cell's index-engine counters into the
// kv_index families.
func (l *Live) AddIndex(st index.Stats) {
	if l == nil {
		return
	}
	l.idxNodeReads.Add(st.NodeReads)
	l.idxBloomChecks.Add(st.BloomChecks)
	l.idxBloomNegative.Add(st.BloomNegative)
	l.idxCacheHits.Add(st.CacheHits)
	l.idxCacheMisses.Add(st.CacheMisses)
	l.idxBytesRead.Add(st.BytesRead)
	l.idxBytesWritten.Add(st.BytesWritten)
}

// AddFaults folds one finished cell's injection/recovery ledger into the
// fault family.
func (l *Live) AddFaults(r fault.Report) {
	if l == nil {
		return
	}
	l.fInjected.Add(r.Injected)
	l.fECCRetries.Add(r.ECCRetries)
	l.fUncorrectable.Add(r.Uncorrectable)
	l.fRingFallbacks.Add(r.RingFallbacks)
	l.fDMAFallbacks.Add(r.DMAFallbacks)
	l.fProgRetries.Add(r.ProgramRetries)
	l.fWBRetries.Add(r.WritebackRetries)
}

// cellStarted records a cell entering execution.
func (l *Live) cellStarted(label string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.cells[label]
	if !ok {
		c = &cellState{Label: label}
		l.cells[label] = c
		l.total++
	}
	c.State = "running"
	c.started = time.Now()
}

// cellFinished records a cell's completion and folds its perf numbers in.
func (l *Live) cellFinished(label string, pf CellPerf, failed bool) {
	if l == nil {
		return
	}
	l.cellsDone.Inc()
	l.opsDone.Add(pf.Ops)
	l.cellWall.Observe(pf.WallSeconds)
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.cells[label]
	if !ok {
		c = &cellState{Label: label}
		l.cells[label] = c
		l.total++
	}
	c.State = "done"
	if failed {
		c.State = "failed"
	}
	c.WallSeconds = pf.WallSeconds
}

// Progress returns the /progress document: overall counts plus the
// per-cell completion list, sorted by label for stable output.
func (l *Live) Progress() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	cells := make([]cellState, 0, len(l.cells))
	done := 0
	for _, c := range l.cells {
		cells = append(cells, *c)
		if c.State == "done" || c.State == "failed" {
			done++
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Label < cells[j].Label })
	return struct {
		CellsTotal int         `json:"cells_total"`
		CellsDone  int         `json:"cells_done"`
		Cells      []cellState `json:"cells"`
	}{CellsTotal: l.total, CellsDone: done, Cells: cells}
}
