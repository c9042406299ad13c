package bench

import (
	"errors"
	"fmt"
	"io"

	"pipette/internal/baseline"
	"pipette/internal/buildinfo"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/report"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// OpenLoopOpts configures one open-loop replay.
type OpenLoopOpts struct {
	// Arrivals is the arrival process (required): requests arrive on its
	// schedule regardless of completions.
	Arrivals workload.Arrivals
	// Depth bounds in-flight requests: arrivals past the bound wait in an
	// admission FIFO, and that wait is attributed to the queue stage.
	// Values < 1 clamp to 1.
	Depth int
	// MaxQueue bounds the admission FIFO itself: an arrival that would
	// have to wait behind MaxQueue queued requests is rejected with
	// backpressure and counted on Result.Rejected. 0 = unbounded.
	MaxQueue int
	// Offered is the nominal arrival rate in ops/s, recorded on the
	// result for reporting (the achieved rate comes from the snapshot).
	Offered float64
	// TolerateMediaErrors counts uncorrectable media errors as lost
	// requests instead of failing the replay — see RunOpts.
	TolerateMediaErrors bool
}

// RunOpenLoop replays an open-loop request stream against e: requests
// arrive per opts.Arrivals, wait in an admission queue while Depth
// requests are in flight, and dispatch as completions free slots. The
// engine's stack executes each dispatched request synchronously in
// virtual time, so overlap between in-flight requests emerges from the
// contended device resources (NAND dies and channel buses, the PCIe link
// and NVMe fetch arbiter when enabled) that persist across calls — the
// discrete-event engine sequences arrivals, dispatches, and completions
// deterministically by (time, seq).
//
// Host-side software state (caches, the fine-read ring) mutates at
// dispatch, a modeling simplification documented in DESIGN.md §8.
// Per-request latency is measured arrival to completion, so queueing
// delay is part of the distribution — the open-system behavior a
// closed-loop replay cannot show.
func RunOpenLoop(e baseline.Engine, gen workload.Generator, requests int, opts OpenLoopOpts) (*Result, error) {
	if opts.Arrivals == nil {
		return nil, errors.New("bench: open-loop replay needs an arrival process")
	}
	if requests <= 0 {
		return nil, errors.New("bench: open-loop replay needs requests > 0")
	}
	depth := opts.Depth
	if depth < 1 {
		depth = 1
	}

	eng := sim.NewEngine()
	b := newReplayBufs()
	base := e.Snapshot()
	res := &Result{Offered: opts.Offered, Depth: depth, Arrivals: opts.Arrivals.Name()}

	// Open-loop replays have no warmup, so the tail capture and the
	// heatmap span the whole run, time axis anchored at virtual zero.
	tail := telemetry.NewTailRecorder(tailTopK, tailKeep(requests))
	e.Stages().SetTail(tail)
	defer e.Stages().SetTail(nil)
	grid := telemetry.NewLatencyGrid(0)

	type pending struct {
		arrival sim.Time
		req     workload.Request
	}
	var (
		queue    []pending
		head     int
		inFlight int
		arrived  int
		lastDone sim.Time
		runErr   error
	)

	var admit func(now sim.Time)
	complete := func(now sim.Time) {
		inFlight--
		admit(now)
	}
	admit = func(now sim.Time) {
		for runErr == nil && inFlight < depth && head < len(queue) {
			p := queue[head]
			head++
			// Arm the stage account with the true arrival time: the span
			// [arrival, now) becomes the request's queue stage and its
			// latency is measured from arrival.
			e.Stages().PreQueue(p.arrival)
			done, err := b.serve(e, now, p.req)
			if err != nil {
				if !opts.TolerateMediaErrors || !errors.Is(err, nvme.ErrUncorrectable) {
					runErr = fmt.Errorf("bench: open-loop request %d (%+v): %w", head-1, p.req, err)
					return
				}
				// The failed request still occupied the system until done;
				// it frees its slot then but never enters the histogram.
				res.Lost++
			} else {
				res.Hist.Observe(done - p.arrival)
				grid.Observe(done, done-p.arrival)
			}
			if done > lastDone {
				lastDone = done
			}
			inFlight++
			eng.At(done, complete)
		}
		// Reclaim the drained backlog so a long overloaded run does not
		// hold every request in memory.
		if head == len(queue) {
			queue = queue[:0]
			head = 0
		}
	}
	var arrive func(now sim.Time)
	arrive = func(now sim.Time) {
		req := gen.Next()
		arrived++
		if arrived < requests {
			eng.At(now+opts.Arrivals.Next(), arrive)
		}
		if opts.MaxQueue > 0 && inFlight >= depth && len(queue)-head >= opts.MaxQueue {
			res.Rejected++ // backpressure: the FIFO is full, drop at arrival
			return
		}
		queue = append(queue, pending{arrival: now, req: req})
		admit(now)
	}
	eng.At(opts.Arrivals.Next(), arrive)
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}

	res.Tail = tail.Snapshot()
	res.Heat = grid.Snapshot()
	res.Stages = e.Stages().Snapshot()
	res.Resources = e.Resources().Snapshot(lastDone)
	res.Snapshot = measured(e.Snapshot(), base, uint64(requests)-res.Lost-res.Rejected, lastDone)
	return res, nil
}

// qdepthEngineIdxs are the engines the saturation sweep compares: the
// conventional path, the strongest 2B-SSD mode, and full Pipette
// (indexes into EngineNames / newEngine).
var qdepthEngineIdxs = []int{0, 2, 4}

// qdepthKneeFrac is the saturation-knee criterion: the first offered rate
// whose achieved throughput falls below this fraction of offered marks
// the knee.
const qdepthKneeFrac = 0.95

// Bursty-arrival shape for the burst rows: bursts of 64 requests at 8x
// the average rate.
const (
	qdepthBurstLen  = 64
	qdepthBurstPeak = 8.0
)

// qdepthConfig is the per-cell stack: the shared sweep configuration with
// device-side contention fully on — the PCIe link serializes transfers
// and the NVMe fetch engine arbitrates submissions — so queueing shows up
// everywhere it physically would.
func qdepthConfig(s Scale) baseline.StackConfig {
	cfg := s.stackConfig(s.FileSize())
	cfg.SSD.LinkArbitration = true
	cfg.NVMe.Arbitration = 100 * sim.Nanosecond
	return cfg
}

// qdepthPoint is one cell of the sweep grid.
type qdepthPoint struct {
	engine int
	depth  int
	rate   float64 // offered ops/s; 0 = closed loop
	burst  bool
}

func (pt qdepthPoint) label() string {
	if pt.rate == 0 {
		return fmt.Sprintf("qdepth/%s/closed", EngineNames[pt.engine])
	}
	kind := "poisson"
	if pt.burst {
		kind = "bursty"
	}
	return fmt.Sprintf("qdepth/%s/qd%d/%s@%.0f", EngineNames[pt.engine], pt.depth, kind, pt.rate)
}

// workload names the point for export rows.
func (pt qdepthPoint) workload() string {
	if pt.rate == 0 {
		return "mixE-closed"
	}
	kind := "poisson"
	if pt.burst {
		kind = "bursty"
	}
	return fmt.Sprintf("mixE-qd%d-%s@%.0f", pt.depth, kind, pt.rate)
}

// qdepthPoints enumerates the sweep grid in render order: per engine, the
// closed-loop reference, then per depth the Poisson rate sweep (ascending)
// plus one bursty point at a mid-sweep rate.
func qdepthPoints(s Scale) []qdepthPoint {
	burstRate := s.QDepthRates[(len(s.QDepthRates)-1)/2]
	var points []qdepthPoint
	for _, ei := range qdepthEngineIdxs {
		points = append(points, qdepthPoint{engine: ei, depth: 1})
		for _, d := range s.QDepths {
			for _, r := range s.QDepthRates {
				points = append(points, qdepthPoint{engine: ei, depth: d, rate: r})
			}
			points = append(points, qdepthPoint{engine: ei, depth: d, rate: burstRate, burst: true})
		}
	}
	return points
}

// WriteQDepth runs the saturation sweep: arrival rate x queue depth x
// engine over workload mix E (100% small reads, uniform), open loop with
// Poisson and bursty arrivals plus the closed-loop reference, and prints
// the throughput-vs-latency table and each configuration's saturation
// knee. When opts names an export file the per-point run records (the
// pipette-report input, including the queue stage and per-resource
// occupancy) are written there; the trace/stats outputs do not apply to
// this experiment. Each point is a pool cell over a private system;
// rendering happens after all complete, in grid order, so the output is
// byte-identical at any worker count.
func WriteQDepth(w io.Writer, s Scale, opts TelemetryOpts, p *Pool) (err error) {
	if len(s.QDepths) == 0 || len(s.QDepthRates) == 0 || s.QDepthRequests <= 0 {
		return errors.New("bench: scale has no qdepth sweep parameters")
	}
	mixE := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[4]
	points := qdepthPoints(s)
	slots := make([]*Result, len(points))

	var exports telemetry.Exports
	defer func() {
		if cerr := exports.Close(); err == nil {
			err = cerr
		}
	}()
	if opts.ExportOut != "" {
		if aerr := exports.Add(opts.ExportOut, func(fw io.Writer) error {
			exp := &report.Export{Tool: "pipette-bench qdepth", Version: buildinfo.Version, Scale: s.Name}
			for i, pt := range points {
				if r := slots[i]; r != nil {
					exp.Runs = append(exp.Runs, ExportRun(EngineNames[pt.engine], pt.workload(), r))
				}
			}
			return exp.WriteJSON(fw)
		}); aerr != nil {
			return aerr
		}
	}

	cells := make([]Cell, len(points))
	for i, pt := range points {
		i, pt := i, pt
		cells[i] = Cell{
			Label: pt.label(),
			Run: func() (*Result, error) {
				e, err := newEngine(pt.engine, qdepthConfig(s))
				if err != nil {
					return nil, err
				}
				gen, err := workload.NewSynthetic(mixE)
				if err != nil {
					return nil, err
				}
				var res *Result
				if pt.rate == 0 {
					res, err = Run(e, gen, s.QDepthRequests, RunOpts{TolerateMediaErrors: true})
				} else {
					var arr workload.Arrivals
					if pt.burst {
						arr, err = workload.NewBursty(pt.rate, qdepthBurstLen, qdepthBurstPeak, 0xa221)
					} else {
						arr, err = workload.NewPoisson(pt.rate, 0xa221)
					}
					if err != nil {
						return nil, err
					}
					res, err = RunOpenLoop(e, gen, s.QDepthRequests, OpenLoopOpts{
						Arrivals: arr, Depth: pt.depth, Offered: pt.rate,
						TolerateMediaErrors: true,
					})
				}
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", pt.label(), err)
				}
				slots[i] = res
				return res, nil
			},
		}
	}
	if err := p.RunCells(cells); err != nil {
		return err
	}

	fmt.Fprintf(w, "=== Throughput vs latency: mix E uniform, open loop (scale %s, %d requests/point) ===\n",
		s.Name, s.QDepthRequests)
	renderQDepthTable(w, points, slots)
	fmt.Fprintln(w)
	renderQDepthKnees(w, s, points, slots)
	if opts.ExportOut != "" {
		if cerr := exports.Close(); cerr != nil { // idempotent; defer no-ops
			return cerr
		}
		fmt.Fprintf(w, "\nrun export written to %s (%d runs; render with pipette-report)\n",
			opts.ExportOut, len(points))
	}
	return nil
}

func renderQDepthTable(w io.Writer, points []qdepthPoint, slots []*Result) {
	t := &metrics.Table{Rows: [][]string{{
		"engine", "qd", "arrivals", "offered/s", "achieved/s",
		"mean(us)", "p50(us)", "p99(us)", "queue(us)", "rejected"}}}
	for i, pt := range points {
		r := slots[i]
		if r == nil {
			continue
		}
		arrName := "closed"
		offered := "-"
		qd := fmt.Sprintf("%d", pt.depth)
		if pt.rate > 0 {
			arrName = r.Arrivals
			offered = fmt.Sprintf("%.0f", pt.rate)
		} else {
			qd = "1"
		}
		// Mean queue time over all requests (the stage total averages over
		// every request, not only the ones that waited).
		var queueUs float64
		if r.Stages.Requests > 0 {
			queueUs = (sim.Time(int64(r.Stages.Totals[telemetry.StageQueue])) /
				sim.Time(int64(r.Stages.Requests))).Micros()
		}
		t.AddRow(
			EngineNames[pt.engine], qd, arrName, offered,
			fmt.Sprintf("%.0f", r.Snapshot.ThroughputOpsPerSec()),
			fmt.Sprintf("%.2f", r.Hist.Mean().Micros()),
			fmt.Sprintf("%.2f", r.Hist.Quantile(0.50).Micros()),
			fmt.Sprintf("%.2f", r.Hist.Quantile(0.99).Micros()),
			fmt.Sprintf("%.2f", queueUs),
			fmt.Sprintf("%d", r.Rejected),
		)
	}
	io.WriteString(w, t.Render())
}

// renderQDepthKnees prints each (engine, depth) Poisson curve's saturation
// knee: the first offered rate whose achieved throughput drops below
// qdepthKneeFrac of offered.
func renderQDepthKnees(w io.Writer, s Scale, points []qdepthPoint, slots []*Result) {
	fmt.Fprintf(w, "saturation knees (achieved < %.0f%% of offered):\n", 100*qdepthKneeFrac)
	for _, ei := range qdepthEngineIdxs {
		for _, d := range s.QDepths {
			knee := ""
			for i, pt := range points {
				if pt.engine != ei || pt.depth != d || pt.rate == 0 || pt.burst || slots[i] == nil {
					continue
				}
				achieved := slots[i].Snapshot.ThroughputOpsPerSec()
				if achieved < qdepthKneeFrac*pt.rate {
					knee = fmt.Sprintf("offered %.0f op/s -> achieved %.0f op/s", pt.rate, achieved)
					break
				}
			}
			if knee == "" {
				knee = "beyond sweep (no saturation observed)"
			}
			fmt.Fprintf(w, "  %-18s qd=%-4d %s\n", EngineNames[ei], d, knee)
		}
	}
}
