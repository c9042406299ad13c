package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runSmall runs one workload at the small sizes with no timed remainder,
// so the run is a fixed request count.
func runSmall(t *testing.T, spec workloadSpec, seed uint64, traced bool) *result {
	t.Helper()
	res, err := run(runConfig{spec: spec, sizes: smallSizes(), seed: seed, traced: traced})
	if err != nil {
		t.Fatalf("%s seed %d: %v", spec.name, seed, err)
	}
	if !res.correct {
		t.Fatalf("%s seed %d: output check failed: %v", spec.name, seed, res.problems)
	}
	return res
}

// isHostMetric reports whether a metric is measured in host time or host
// resources, as opposed to a simulated count or virtual time.
func isHostMetric(name string) bool {
	return strings.HasPrefix(name, "setup_") || strings.HasPrefix(name, "host_") ||
		strings.Contains(name, ".host_") || strings.HasPrefix(name, "runtime.") ||
		strings.HasPrefix(name, "trace.")
}

// simulated returns a run's simulated metrics: virtual-time figures,
// amplification, failures and the count-based per-layer metrics.
func simulated(r *result) map[string]float64 {
	out := make(map[string]float64)
	for _, ms := range [][]metric{r.metrics, r.extra} {
		for _, m := range ms {
			if !isHostMetric(m.name) && !strings.HasPrefix(m.name, "profile.") {
				out[m.name] = m.value
			}
		}
	}
	return out
}

func TestSimulatedMetricsRepeatForASeed(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			a, b := simulated(runSmall(t, spec, 7, true)), simulated(runSmall(t, spec, 7, true))
			if len(a) < 40 {
				t.Fatalf("only %d simulated metrics", len(a))
			}
			for name, va := range a {
				if vb, ok := b[name]; !ok || va != vb {
					t.Errorf("%s: %v then %v", name, va, vb)
				}
			}
		})
	}
}

func TestShapeHoldsOnAnotherSeed(t *testing.T) {
	amp := func(name string) float64 {
		spec, _ := lookupWorkload(name)
		return simulated(runSmall(t, spec, 8, false))["read_amp"]
	}
	if a := amp("embed-fine"); !(a > 0 && a < 1) {
		t.Errorf("embed-fine read_amp = %v, want in (0, 1): fine reads move less than a page", a)
	}
	if a := amp("graph-rw"); !(a > 1) {
		t.Errorf("graph-rw read_amp = %v, want > 1: dirty pages route reads to the block path", a)
	}
}

// TestMetricNamesMatchBenchmarkFile checks that the metrics the command
// prints are exactly the ones BENCHMARK.json declares, with its units.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no benchmark file: %v", err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	spec, _ := lookupWorkload("tier-open")
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		got := make(map[string]string)
		for _, m := range runSmall(t, spec, 3, c.traced).metrics {
			if _, dup := got[m.name]; dup {
				t.Errorf("metric %s printed twice", m.name)
			}
			got[m.name] = m.unit
		}
		for _, w := range c.want {
			if u, ok := got[w.Name]; !ok || u != w.Unit {
				t.Errorf("traced=%v: %s printed with unit %q (present %v), declared %q", c.traced, w.Name, u, ok, w.Unit)
			}
			delete(got, w.Name)
		}
		for name := range got {
			t.Errorf("traced=%v: %s printed but not declared", c.traced, name)
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"pipette/internal/core.(*Pipette).Read": "pipette/internal/core",
		"pipette.(*File).ReadAt":                "pipette",
		"main.(*fileTarget).do":                 "main",
		"runtime.mallocgc":                      "runtime",
		"pipette/internal/index.decode[...]":    "pipette/internal/index",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		frames []string
		group  string
		main   bool
	}{
		{[]string{"runtime.memmove", "pipette/internal/nand.(*Array).ProgramPage", "runtime.main"}, "nand", true},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "pipette/internal/index.decode", "runtime.main"}, "runtime.malloc", true},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc", false},
		{[]string{"pipette/internal/bitset.(*Set).Get", "pipette/internal/nand.(*Array).ReadPage", "runtime.main"}, "nand", true},
		{[]string{"runtime.futex", "runtime.mcall"}, "other", false},
	} {
		if g, m := classify(c.frames); g != c.group || m != c.main {
			t.Errorf("classify(%v) = %s, %v; want %s, %v", c.frames, g, m, c.group, c.main)
		}
	}
}
