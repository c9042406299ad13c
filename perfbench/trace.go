package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// spanName names the host spans the benchmark records around its calls
// into the stack's public functions.
type spanName uint8

const (
	spRequest spanName = iota // one generated request (root)
	spNext                    // workload generator Next
	spRead                    // File.ReadAt or KV.Get
	spWrite                   // File.WriteAt or KV.Put
	spSync                    // File.Sync or KV.Sync (root)
	spTick                    // System.MaintenanceTick (root)
	spReplay                  // cluster Replay of one batch
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "workload.next", "api.read", "api.write", "api.sync", "maintenance.tick", "api.replay",
}

// maxHostSpans bounds the spans kept for the trace file; every span is
// still counted in the aggregates.
const maxHostSpans = 1 << 16

// hostSpan is one recorded host-time interval, in ns since the recorder
// started. Parent is the index of the enclosing span (-1 for a root); the
// spans of one request share Req.
type hostSpan struct {
	Name   string `json:"name"`
	Req    uint32 `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg sums one span name's occurrences.
type spanAgg struct {
	N       int64 `json:"n"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // duration minus the time children cover
}

// recorder keeps host spans in memory. A nil recorder records nothing, so
// the untraced run pays one nil check per call.
type recorder struct {
	origin time.Time
	req    uint32
	spans  []hostSpan
	stack  []openSpan
	agg    [numSpanNames]spanAgg
}

type openSpan struct {
	name  spanName
	idx   int32 // index in spans, -1 when not kept
	start int64
	child int64 // ns covered by children
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]hostSpan, 0, maxHostSpans), stack: make([]openSpan, 0, 8)}
}

func (r *recorder) begin(n spanName) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	parent := int32(-1)
	if len(r.stack) == 0 {
		r.req++
	} else {
		parent = r.stack[len(r.stack)-1].idx
	}
	idx := int32(-1)
	if len(r.spans) < cap(r.spans) {
		idx = int32(len(r.spans))
		r.spans = append(r.spans, hostSpan{Name: spanNames[n], Req: r.req, Parent: parent, Start: now})
	}
	r.stack = append(r.stack, openSpan{name: n, idx: idx, start: now})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := now - top.start
	a := &r.agg[top.name]
	a.N++
	a.TotalNs += dur
	a.SelfNs += dur - top.child
	if len(r.stack) > 0 {
		r.stack[len(r.stack)-1].child += dur
	}
	if top.idx >= 0 {
		r.spans[top.idx].End = now
	}
}

// virtTracer is the benchmark's telemetry.Tracer: it sums the stack's
// virtual-time spans per layer track and keeps the first spans verbatim.
type virtTracer struct {
	req    uint64
	tracks map[string]*trackAgg
	spans  []virtSpan
}

type trackAgg struct {
	Spans    uint64 `json:"spans"`
	Instants uint64 `json:"instants"`
	VirtNs   int64  `json:"virt_ns"`
}

type virtSpan struct {
	Req   uint64 `json:"req"`
	Track string `json:"track"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

const maxVirtSpans = 1 << 16

func newVirtTracer() *virtTracer {
	return &virtTracer{tracks: make(map[string]*trackAgg), spans: make([]virtSpan, 0, maxVirtSpans)}
}

// orNil converts a nil *virtTracer into a nil interface, which SetTracer
// maps to the no-op tracer.
func (v *virtTracer) orNil() telemetry.Tracer {
	if v == nil {
		return nil
	}
	return v
}

// layer maps a track ("nand/ch0") to its layer ("nand").
func (v *virtTracer) layer(track string) *trackAgg {
	if i := strings.IndexByte(track, '/'); i >= 0 {
		track = track[:i]
	}
	a := v.tracks[track]
	if a == nil {
		a = &trackAgg{}
		v.tracks[track] = a
	}
	return a
}

func (v *virtTracer) Enabled() bool                       { return true }
func (v *virtTracer) BeginRequest(string, sim.Time)       { v.req++ }
func (v *virtTracer) EndRequest(sim.Time)                 {}
func (v *virtTracer) Instant(track, _ string, _ sim.Time) { v.layer(track).Instants++ }

func (v *virtTracer) Span(track, name string, start, end sim.Time) {
	a := v.layer(track)
	a.Spans++
	a.VirtNs += int64(end - start)
	if len(v.spans) < cap(v.spans) {
		v.spans = append(v.spans, virtSpan{Req: v.req, Track: track, Name: name, Start: int64(start), End: int64(end)})
	}
}

// profileHz is the CPU profile's sampling rate in the traced phase.
const profileHz = 250

// traceResult is what the traced phase measured.
type traceResult struct {
	untraced, traced []window
	ops              int   // requests in the traced phase
	wallNs           int64 // host time of the traced phase
	gcCycles         uint32
	agg              [numSpanNames]spanAgg
	prof             attribution
	out              *traceOut
}

// traceOut is the span file written at the end of a traced run.
type traceOut struct {
	Workload     string               `json:"workload"`
	Seed         uint64               `json:"seed"`
	TracedOps    int                  `json:"traced_ops"`
	WallNs       int64                `json:"wall_ns"`
	SpanTotals   map[string]spanAgg   `json:"span_totals"`
	ProfileNs    map[string]int64     `json:"profile_self_ns"`
	MainNs       int64                `json:"profile_main_goroutine_ns"`
	BackgroundNs int64                `json:"profile_background_ns"`
	VirtTracks   map[string]*trackAgg `json:"virtual_tracks,omitempty"`
	HostSpans    []hostSpan           `json:"host_spans"`
	VirtSpans    []virtSpan           `json:"virtual_spans,omitempty"`
}

// tracedPhases runs half the time budget untraced and half traced, the
// latter with host spans, the virtual tracer and the CPU profile on.
func tracedPhases(t target, m *meter, ph phases, seconds float64, simWindows []window) (*traceResult, error) {
	half := time.Duration(seconds / 2 * float64(time.Second))
	tr := &traceResult{}
	var err error
	if tr.untraced, err = runWindows(t, m, nil, ph, 0, half, nil); err != nil {
		return nil, err
	}
	if len(tr.untraced) == 0 {
		tr.untraced = simWindows
	}

	rec := newRecorder()
	vt := newVirtTracer()
	if !t.setTracer(vt) {
		vt = nil
	}
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// StartCPUProfile asks for its own default rate and warns on standard
	// error that the rate set here is already in force.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t0 := time.Now()
	tr.traced, err = runWindows(t, m, rec, ph, 0, half, nil)
	if err == nil && len(tr.traced) == 0 {
		tr.traced, err = runWindows(t, m, rec, ph, ph.window, 0, nil)
	}
	tr.wallNs = int64(time.Since(t0))
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	t.setTracer(nil)
	if err != nil {
		return nil, err
	}
	for _, w := range tr.traced {
		tr.ops += w.ops
	}
	tr.gcCycles = ms1.NumGC - ms0.NumGC
	tr.agg = rec.agg
	if tr.prof, err = attribute(prof.Bytes(), profileHz); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tr.out = &traceOut{
		TracedOps: tr.ops, WallNs: tr.wallNs,
		SpanTotals: make(map[string]spanAgg), ProfileNs: tr.prof.self,
		MainNs: tr.prof.mainNs, BackgroundNs: tr.prof.backgroundNs,
		HostSpans: rec.spans,
	}
	for i, a := range rec.agg {
		if a.N > 0 {
			tr.out.SpanTotals[spanNames[i]] = a
		}
	}
	if vt != nil {
		tr.out.VirtTracks, tr.out.VirtSpans = vt.tracks, vt.spans
	}
	return tr, nil
}
