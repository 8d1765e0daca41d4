package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// traced is the record of the separate traced run: the loop with its
// phase spans, the set-up's spans, and what the profiles and
// runtime/metrics attribute to each layer over the loop.
type traced struct {
	loop              *loop
	setupSpans, spans []span
	snapBytes         int
	// cpu and alloc hold per-layer totals: CPU nanoseconds from the
	// CPU profile, allocated bytes from the heap profile's alloc_space.
	cpu, alloc map[string]int64
	// cpuByPhase holds CPU nanoseconds per pprof phase label.
	cpuByPhase map[string]int64
	// gcCPU and gcAssist are runtime/metrics GC CPU seconds over the
	// loop.
	gcCPU, gcAssist float64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
}

func readGC() (total, assist float64) {
	metrics.Read(gcSamples)
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

// heapLayers returns cumulative allocated bytes per layer, as of a
// garbage collection forced now.
func heapLayers() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return layerTotals(p, "alloc_space")
}

// runTraced sets the workload up and runs the measured loop again with
// every phase spanned and labelled, under the CPU profiler, bracketed
// by heap profiles and runtime/metrics reads.
func runTraced(w *workload, sz size, opt options) (*traced, error) {
	str := &tracer{on: true, t0: time.Now()}
	p, err := w.setup(sz, opt.seed, str)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	heap0, err := heapLayers()
	if err != nil {
		return nil, err
	}
	gc0, assist0 := readGC()
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tr := &tracer{on: true, t0: time.Now()}
	l := runLoop(p, opt.budget, tr)
	pprof.StopCPUProfile()
	gc1, assist1 := readGC()
	heap1, err := heapLayers()
	if err != nil {
		return nil, err
	}
	t := &traced{
		loop: l, setupSpans: str.spans, spans: tr.spans, snapBytes: len(p.snap),
		alloc:      map[string]int64{},
		cpuByPhase: map[string]int64{},
		gcCPU:      gc1 - gc0, gcAssist: assist1 - assist0,
	}
	for _, layer := range layers {
		t.alloc[layer] = heap1[layer] - heap0[layer]
	}
	prof, err := parseProfile(cpuBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if t.cpu, err = layerTotals(prof, "cpu"); err != nil {
		return nil, err
	}
	vi, err := prof.valueIndex("cpu")
	if err != nil {
		return nil, err
	}
	for _, s := range prof.samples {
		phase := s.labels["phase"]
		if phase == "" {
			phase = "none"
		}
		t.cpuByPhase[phase] += s.values[vi]
	}
	return t, nil
}

// metrics assembles the per-layer metrics. Phase figures are per pass
// for the loop's phases plus per set-up for the set-up's; counts are
// those of the first pass; untracedRun is the untraced loop's median
// pass wall time, for the tracing overhead.
func (t *traced) metrics(untracedRun float64) []metric {
	passes := float64(len(t.loop.walls))
	loopS := map[string]float64{}
	phaseS := map[string]float64{}
	phaseB := map[string]float64{}
	for _, s := range t.spans {
		loopS[s.Phase] += s.Dur.Seconds() / passes
		phaseS[s.Phase] += s.Dur.Seconds() / passes
		phaseB[s.Phase] += float64(s.AllocB) / passes
	}
	for _, s := range t.setupSpans {
		phaseS[s.Phase] += s.Dur.Seconds()
		phaseB[s.Phase] += float64(s.AllocB)
	}
	var out []metric
	for _, ph := range phases {
		out = append(out,
			metric{"phase." + ph + ".s", "s", phaseS[ph]},
			metric{"phase." + ph + ".alloc_mb", "MB", phaseB[ph] / 1e6})
	}
	c := t.loop.counts
	simS := loopS["establish"] + loopS["warmup"] + loopS["measure"]
	perEvent, perRecompute := 0.0, 0.0
	if c.Events > 0 {
		perEvent = simS * 1e9 / float64(c.Events)
	}
	if c.Recomputes > 0 {
		perRecompute = float64(c.RouteEvents) / float64(c.Recomputes)
	}
	out = append(out,
		metric{"sim.events", "count", float64(c.Events)},
		metric{"sim.ns_per_event", "ns", perEvent},
		metric{"netem.delivered", "count", float64(c.Delivered)},
		metric{"netem.dropped", "count", float64(c.Dropped)},
		metric{"netem.bytes", "B", float64(c.Bytes)},
		metric{"bgp.updates_sent", "count", float64(c.UpdatesSent)},
		metric{"bgp.updates_recv", "count", float64(c.UpdatesRecv)},
		metric{"bgp.session_resets", "count", float64(c.Resets)},
		metric{"monitor.best_path_changes", "count", float64(c.BestPathChanges)},
		metric{"core.recomputes", "count", float64(c.Recomputes)},
		metric{"core.route_events", "count", float64(c.RouteEvents)},
		metric{"core.flow_mods", "count", float64(c.FlowMods)},
		metric{"core.events_per_recompute", "ratio", perRecompute},
		metric{"snapshot.bytes", "B", float64(t.snapBytes)},
	)
	cpu := shares(t.cpu, layers)
	for _, l := range layers {
		out = append(out, metric{"cpu." + l, "fraction", cpu[l]})
	}
	var allocLayers []string // no "gc" bucket: background GC allocates nothing
	for _, l := range layers {
		if l != "gc" {
			allocLayers = append(allocLayers, l)
		}
	}
	alloc := shares(t.alloc, allocLayers)
	for _, l := range allocLayers {
		out = append(out, metric{"alloc." + l, "fraction", alloc[l]})
	}
	traceRun := median(t.loop.walls)
	out = append(out,
		metric{"gc.cpu_s", "s", t.gcCPU / passes},
		metric{"gc.assist_cpu_s", "s", t.gcAssist / passes},
		metric{"trace.run_s", "s", traceRun},
		metric{"trace.overhead_s", "s", traceRun - untracedRun},
	)
	return out
}

// traceFile is the traced run's record as written to --trace-dir.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	SetupSpans []span             `json:"setup_spans"`
	Spans      []span             `json:"spans"`
	CPUByPhase map[string]int64   `json:"cpu_ns_by_phase"`
	CPUByLayer map[string]int64   `json:"cpu_ns_by_layer"`
	AllocLayer map[string]int64   `json:"alloc_bytes_by_layer"`
	Metrics    map[string]float64 `json:"metrics"`
}

func (t *traced) write(dir, workload string, seed int64, ms []metric) error {
	f := traceFile{
		Workload: workload, Seed: seed, SetupSpans: t.setupSpans, Spans: t.spans,
		CPUByPhase: t.cpuByPhase, CPUByLayer: t.cpu, AllocLayer: t.alloc,
		Metrics: map[string]float64{},
	}
	for _, m := range ms {
		f.Metrics[m.name] = m.value
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed)), b, 0o644)
}
