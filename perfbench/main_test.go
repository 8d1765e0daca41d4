package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/lab"
)

// tiny sizes each workload down so the self-test runs every code path
// in seconds.
var tiny = map[string]size{
	"fig2-clique16":     {Topo: lab.TopoSpec{Kind: "clique", N: 4}, SDNCounts: []int{0, 2, 4}, Runs: 1},
	"vf-internet1000":   {Topo: lab.TopoSpec{Kind: "internet", N: 32}, K: 16},
	"fork-internet1000": {Topo: lab.TopoSpec{Kind: "internet", N: 32}, Forks: 1},
}

type benchMetric struct {
	Name, Unit string
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNames asserts the report emits exactly the listed metrics, each
// with its listed unit.
func checkNames(t *testing.T, got []metric, want []benchMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, m := range got {
		unit, ok := units[m.name]
		switch {
		case !ok:
			t.Errorf("metric %q is not listed in BENCHMARK.json", m.name)
		case unit != m.unit:
			t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", m.name, m.unit, unit)
		case seen[m.name]:
			t.Errorf("metric %q emitted twice", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range want {
		if !seen[m.Name] {
			t.Errorf("metric %q listed in BENCHMARK.json is not emitted", m.Name)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		if _, ok := tiny[w.Name]; !ok {
			t.Errorf("workload %q has no tiny size", w.Name)
		}
	}
}

// TestTinyWorkloads runs every workload at its tiny size, untraced and
// traced, on two seeds: the outputs must pass the gate (against lab's own
// runs) and the metrics must be exactly those BENCHMARK.json lists.
func TestTinyWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, 7} {
			for _, trace := range []bool{false, true} {
				opt := options{seed: seed, budget: 1, trace: trace, traceDir: t.TempDir()}
				r, err := runWorkload(w, tiny[w.name], opt)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.name, seed, trace, err)
				}
				if !r.correct || r.failed != 0 || r.attempted == 0 {
					t.Errorf("%s seed %d trace %v: correct %v, %d of %d failed", w.name, seed, trace, r.correct, r.failed, r.attempted)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				checkNames(t, r.metrics, want)
			}
		}
	}
}

// TestGateCatchesWrongOutput tampers with one trial's outcome and
// expects the gate to count it failed.
func TestGateCatchesWrongOutput(t *testing.T) {
	for _, w := range workloads {
		sz := tiny[w.name]
		p, err := w.setup(sz, defaultSeed, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		l := runLoop(p, 1, &tracer{})
		if _, failed, err := gate(w, sz, defaultSeed, p, []*loop{l}); err != nil || failed != 0 {
			t.Fatalf("%s: untampered run: %d failed, err %v", w.name, failed, err)
		}
		l.outs[0][0].UpdatesSent++
		if _, failed, err := gate(w, sz, defaultSeed, p, []*loop{l}); err != nil || failed == 0 {
			t.Errorf("%s: tampered run: %d failed, err %v", w.name, failed, err)
		}
	}
}

// TestPinnedFig2 runs Figure 2 at its pinned size and default seed,
// the path gated by the pinned digests and fit.
func TestPinnedFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure 2 sweep")
	}
	w, err := lookupWorkload("fig2-clique16")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload(w, w.pinned, options{seed: defaultSeed, budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || r.failed != 0 {
		t.Errorf("pinned Figure 2: %d of %d failed", r.failed, r.attempted)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapassign", "repro/internal/bgp/rib.(*Table).Insert", "repro/internal/bgp.(*Router).handle"}, "bgp.rib"},
		{[]string{"repro/internal/sdn/ofp.Encode", "repro/internal/core.(*Controller).recompute"}, "sdn"},
		{[]string{"encoding/json.(*decodeState).object", "repro/internal/bgp.(*RouterState).UnmarshalJSON", "repro/internal/experiment.DecodeSnapshot"}, "codec"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.madvise", "runtime.(*pageAlloc).scavengeOne", "runtime.(*scavengerState).run", "runtime.bgscavenge"}, "gc"},
		{[]string{"repro/internal/idr.ASN.String", "repro/internal/lab.Placement.Select"}, "other"},
		{[]string{"runtime.schedule", "main.main"}, "other"},
		{[]string{"runtime.sweepone", "runtime.GC", "main.runLoop"}, ""},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
