package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"pipette"
	"pipette/internal/metrics"
	"pipette/internal/telemetry"
)

// meter collects what the requests of one phase observed. Latencies and
// workload bytes are kept only while record is set (the simulated window);
// attempted, failed and wrong count the whole measured phase.
type meter struct {
	record                bool
	readLat, writeLat     []int64 // virtual ns of successful requests
	readBytes, writeBytes uint64  // bytes the workload asked to read / wrote
	attempted, failed     uint64
	wrong                 uint64 // results with wrong bytes (also in failed)
	checked               int    // fine-path samples re-read through the plain handle
	problems              []string
}

func (m *meter) read(lat int64, n int) {
	if m.record {
		m.readLat = append(m.readLat, lat)
		m.readBytes += uint64(n)
	}
}

func (m *meter) write(lat int64, n int) {
	if m.record {
		m.writeLat = append(m.writeLat, lat)
		m.writeBytes += uint64(n)
	}
}

// fail counts a request the stack refused or could not complete.
func (m *meter) fail(format string, args ...any) {
	m.failed++
	m.problem(format, args...)
}

// mismatch counts a result whose bytes are wrong.
func (m *meter) mismatch(format string, args ...any) {
	m.failed++
	m.wrong++
	m.problem(format, args...)
}

func (m *meter) problem(format string, args ...any) {
	if len(m.problems) < 10 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// counters is a cumulative snapshot of the stack's own counters; metrics
// are differences of two snapshots.
type counters struct {
	virt int64 // virtual ns

	bytesRead, bytesWritten         uint64 // device traffic
	blockReads, fineCmds, writeCmds uint64
	pcHits, pcAccesses, pcEvictions uint64
	fineHits, fineAccesses          uint64
	fineReads, tempBypasses         uint64
	invalidations                   uint64
	threshold                       uint32

	stageReqs   uint64
	stageTotals [telemetry.NumStages]int64
	res         []resBusy

	kvPuts, kvGets, kvLogBytes, kvCompactions, kvMoved uint64
	idxLookups, idxNodeReads, idxBytesRead, idxSplits  uint64

	tier tierLedger
}

// resBusy is one resource timeline's busy time; shard is 0 off the tier.
type resBusy struct {
	shard int
	name  string
	busy  int64
}

func (c *counters) addIO(io metrics.IO) {
	c.bytesRead += io.BytesTransferred
	c.bytesWritten += io.BytesWritten
	c.blockReads += io.BlockReads
	c.fineCmds += io.FineReads
	c.writeCmds += io.Writes
}

func (c *counters) addStages(s telemetry.StageSnapshot) {
	c.stageReqs += s.Requests
	for i, v := range s.Totals {
		c.stageTotals[i] += int64(v)
	}
}

// systemCounters snapshots a facade System through Report.
func systemCounters(sys *pipette.System) counters {
	r := sys.Report()
	c := counters{virt: int64(r.Elapsed)}
	c.addIO(r.IO)
	c.pcHits, c.pcAccesses, c.pcEvictions = r.PageCache.Hits, r.PageCache.Accesses, r.PageCache.Evictions
	c.fineHits, c.fineAccesses = r.FineCache.Hits, r.FineCache.Accesses
	c.fineReads, c.tempBypasses, c.invalidations = r.Core.FineReads, r.Core.TempBypasses, r.Core.Invalidations
	c.threshold = r.Threshold
	c.addStages(r.Stages)
	if r.Resources != nil {
		for _, tl := range r.Resources.Resources {
			c.res = append(c.res, resBusy{name: tl.Name, busy: tl.BusyNs})
		}
	}
	return c
}

// An untraced run times at least minSetups set-ups and keeps going until
// they add up to minSetupTime (so short set-ups get more samples), up to
// maxSetups; setup_s is their median.
const (
	minSetups    = 5
	maxSetups    = 16
	minSetupTime = 2 * time.Second
)

// needSetup reports whether another set-up should be timed, after n that
// took total; a traced run sets up once.
func needSetup(n int, total time.Duration, traced bool) bool {
	switch {
	case n == 0:
		return true
	case traced || n >= maxSetups:
		return false
	}
	return n < minSetups || total < minSetupTime
}

// runConfig is one invocation.
type runConfig struct {
	spec    workloadSpec
	sizes   sizes
	seed    uint64
	seconds float64
	traced  bool
}

// window is one host-timed batch of requests: its wall time, and the
// calibration loop's time measured right before and right after it.
type window struct {
	ops     int
	ns      int64
	calibNs int64 // mean of the two calibration runs
}

// rate is the window's requests per second on the reference core.
func (w window) rate() float64 {
	return float64(w.ops) / (float64(w.ns) / 1e9) * float64(w.calibNs) / calibNominalNs
}

// runWindows drives requests in windows of ph.window until n requests
// (n > 0) or, with n == 0, until the host time budget is spent.
func runWindows(t target, m *meter, tr *recorder, ph phases, n int, budget time.Duration, ws []window) ([]window, error) {
	start := time.Now()
	for done := 0; ; {
		if n > 0 && done >= n {
			break
		}
		if n == 0 && time.Since(start) >= budget {
			break
		}
		k := ph.window
		if n > 0 && n-done < k {
			k = n - done
		}
		before := calibrate()
		t0 := time.Now()
		if err := t.do(k, m, tr); err != nil {
			return ws, err
		}
		ns := int64(time.Since(t0))
		ws = append(ws, window{ops: k, ns: ns, calibNs: (before + calibrate()) / 2})
		done += k
	}
	return ws, nil
}

// run performs one invocation: set-up, the simulated window, the timed
// remainder, the checks, and (traced) the per-layer attribution.
func run(cfg runConfig) (*result, error) {
	initCalibration()
	var (
		tg     target
		ph     phases
		setupS []float64
		total  time.Duration
		err    error
	)
	for needSetup(len(setupS), total, cfg.traced) {
		tg = nil
		runtime.GC() // the previous world's garbage is not this set-up's cost
		t0 := time.Now()
		tg, ph, err = cfg.spec.build(cfg.sizes, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		total += took
		setupS = append(setupS, took.Seconds())
	}

	// The simulated window: a fixed request count, so every simulated
	// figure and the allocation count are independent of host speed.
	m := &meter{record: true, readLat: make([]int64, 0, ph.simOps), writeLat: make([]int64, 0, ph.simOps)}
	ws := make([]window, 0, 4096)
	var ms0, ms1 runtime.MemStats
	c0 := tg.counters()
	runtime.ReadMemStats(&ms0)
	measureStart := time.Now()
	if ws, err = runWindows(tg, m, nil, ph, ph.simOps, 0, ws); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	c1 := tg.counters()
	m.record = false
	// The heap is read here too, so that it does not depend on how many
	// requests the host managed in the timed remainder.
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)

	res := &result{workload: cfg.spec.name, seed: cfg.seed}
	var tres *traceResult
	if !cfg.traced {
		rest := time.Duration(cfg.seconds*float64(time.Second)) - time.Since(measureStart)
		if ws, err = runWindows(tg, m, nil, ph, 0, rest, ws); err != nil {
			return nil, err
		}
	} else {
		if tres, err = tracedPhases(tg, m, ph, cfg.seconds, ws); err != nil {
			return nil, err
		}
	}
	measured := time.Since(measureStart)
	if err := tg.verify(m); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	res.attempted, res.failed = m.attempted, m.failed
	res.correct = m.wrong == 0 && m.attempted > 0
	res.problems = m.problems
	sim := simMetrics(cfg.spec.name, m, &c0, &c1)
	if !cfg.traced {
		res.metrics = append([]metric{
			{"setup_s", "s", median(setupS) * calibNominalNs / medianCalib(ws), len(setupS), "median set-up time on the reference core"},
			{"host_ops_per_s", "1/s", median(normRates(ws)), len(ws),
				fmt.Sprintf("median of %d-request windows, calibrated; %d requests in %.2f s", ph.window, m.attempted, measured.Seconds())},
			{"host_allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs) / float64(ph.simOps), ph.simOps, "heap allocations per request, simulated window"},
			{"host_heap_mb", "MiB", float64(msHeap.HeapAlloc) / (1 << 20), 1, "live heap after the simulated window and a GC"},
		}, sim.gated...)
		res.extra = append(sim.extra, metric{"host_wall_ops_per_s", "1/s", wallRate(ws), len(ws), "measured requests per wall second"})
		res.extra = append(res.extra, metric{"fine_samples_checked", "count", float64(m.checked), m.checked, "fine-path results re-read through a plain handle"})
		return res, nil
	}
	res.metrics = layerMetrics(cfg.spec.name, ph, m, &c0, &c1, tres)
	res.extra = append(sim.gated, sim.extra...)
	for _, g := range sortedKeys(tres.prof.self) {
		res.extra = append(res.extra, metric{"profile." + g, "ns", float64(tres.prof.self[g]) / float64(tres.ops), tres.ops, "self ns per traced request"})
	}
	tres.out.Workload, tres.out.Seed = cfg.spec.name, cfg.seed
	res.trace = tres.out
	return res, nil
}

// simSet is the simulated end-to-end metrics: gated ones are defined and
// non-zero on every workload; extra ones are printed only.
type simSet struct {
	gated, extra []metric
}

func simMetrics(name string, m *meter, c0, c1 *counters) simSet {
	virt := float64(c1.virt-c0.virt) / 1e9
	done := len(m.readLat) + len(m.writeLat)
	pop := "reads"
	if name == "tier-open" {
		pop = "admitted successes, reads and writes"
	}
	var s simSet
	s.gated = []metric{
		{"sim_ops_per_s", "1/s", float64(done) / virt, done, fmt.Sprintf("completed requests per virtual second over %.4f s", virt)},
		{"sim_mean_us", "us", ratio(sumNs(m.readLat)+sumNs(m.writeLat), int64(done)) / 1e3, done, "all completed requests"},
		{"read_amp", "ratio", ratio(c1.bytesRead-c0.bytesRead, m.readBytes), int(m.readBytes), "device bytes read per byte requested"},
	}
	s.extra = []metric{
		{"sim_read_p50_us", "us", percentile(m.readLat, 0.50), len(m.readLat), pop},
		{"sim_read_p99_us", "us", percentile(m.readLat, 0.99), len(m.readLat), pop},
		{"sim_read_p999_us", "us", percentile(m.readLat, 0.999), len(m.readLat), pop},
		{"sim_write_p99_us", "us", percentile(m.writeLat, 0.99), len(m.writeLat), "writes (0 = none measured)"},
		{"write_amp", "ratio", ratio(c1.bytesWritten-c0.bytesWritten, m.writeBytes), int(m.writeBytes), "device bytes written per byte written (0 = no writes)"},
		{"fail_frac", "ratio", ratio(m.failed, m.attempted), int(m.attempted), "failed, refused or wrong-bytes requests per attempted"},
	}
	return s
}

// normRates are the windows' requests per second on the reference core.
func normRates(ws []window) []float64 {
	r := make([]float64, len(ws))
	for i, w := range ws {
		r[i] = w.rate()
	}
	return r
}

// medianCalib is the run's median calibration time: the host speed the
// set-ups are scaled by, from many samples rather than the few a short
// set-up allows.
func medianCalib(ws []window) float64 {
	c := make([]float64, len(ws))
	for i, w := range ws {
		c[i] = float64(w.calibNs)
	}
	return median(c)
}

// wallRate is requests per wall-clock second over the windows.
func wallRate(ws []window) float64 {
	var ops, ns int64
	for _, w := range ws {
		ops += int64(w.ops)
		ns += w.ns
	}
	return ratio(ops, ns) * 1e9
}

// percentile is the nearest-rank percentile of virtual-ns samples, in µs.
func percentile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / 1e3
}

func sumNs(ns []int64) int64 {
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return sum
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio[T uint64 | int64 | int](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
