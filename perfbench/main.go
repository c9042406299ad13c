// Command perfbench is the repository benchmark: it measures the host cost
// (CPU time, allocations, memory, set-up time) and the simulated
// performance (virtual-time latency, throughput, amplification) of the
// Pipette stack on four workloads, and with -trace 1 attributes host time
// to the stack's layers.
//
// It assembles every stack through the public pipette facade or the
// cluster tier API only, and feeds it requests from the internal/workload
// generators. See README.md in this directory for the workloads, the
// metric definitions and the layer-to-metric prediction table.
//
//	go run . -workload embed-fine -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1). Every metric is also printed on its own line
// with its unit and sample count. The command exits 1 when an output check
// fails and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "host seconds to measure")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
		out     = flag.String("out", "", "directory for the traced run's span file (empty = none)")
	)
	flag.Parse()
	spec, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{spec: spec, sizes: fullSizes(), seed: *seed, seconds: *seconds, traced: *trace == 1}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
		os.Exit(2)
	}
	if cfg.traced && *out != "" {
		if err := writeTrace(*out, spec.name, *seed, res.trace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(2)
		}
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// metric is one reported number. n is its sample count: requests, windows
// or set-ups, as note says.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// result is one run's outcome.
type result struct {
	workload  string
	seed      uint64
	correct   bool
	attempted uint64
	failed    uint64
	problems  []string
	metrics   []metric // printed and emitted in the JSON line
	extra     []metric // printed only (not defined on every workload)
	trace     *traceOut
}

// report prints one line per metric, then the JSON result line.
func report(w io.Writer, r *result) error {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d, correct %v\n",
		r.workload, r.seed, r.attempted, r.failed, r.correct)
	for _, p := range r.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	for _, ms := range [][]metric{r.metrics, r.extra} {
		for _, m := range ms {
			fmt.Fprintf(w, "metric %-36s %16.6g %-6s n=%-9d %s\n", m.name, m.value, m.unit, m.n, m.note)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jm, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeTrace stores the traced run's spans and per-package profile as JSON.
func writeTrace(dir, workload string, seed uint64, t *traceOut) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
