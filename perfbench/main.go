// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload of emulation trials in a closed loop — one trial
// at a time, in this process — for a fixed wall-clock budget, checks
// every simulated output, and prints each metric by name with its unit,
// the last line of standard output being one JSON object:
//
//	go build -o perfbench . && ./perfbench --workload fig2-clique16 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// measured untraced. With --trace 1 it runs the loop twice, untraced and
// then traced (phase spans, pprof CPU and heap profiles, runtime/metrics),
// and reports the per-layer metrics instead; --trace-dir also writes the
// spans and metrics there as JSON. --workload all runs every workload in
// turn. A wrong simulated output fails the run: the result reads
// "correct": false and the exit code is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// defaultSeed reproduces the pinned outputs (the registry's BaseSeed 1).
const defaultSeed = 1

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed (topology seed, sweep BaseSeed, fork seeds)")
	seconds := flag.Float64("seconds", 20, "wall-clock seconds the measured loop runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a separate traced run")
	traceDir := flag.String("trace-dir", "", "directory the traced run's spans and metrics are written to")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	opt := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, traceDir: *traceDir}
	ok, err := runAll(os.Stdout, ws, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

type options struct {
	seed     int64
	budget   time.Duration
	trace    bool
	traceDir string
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is one workload run's result.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runAll runs each workload at its pinned size, prints every metric as
// a line, then the JSON result. With several workloads the JSON metric
// names are prefixed "<workload>/". It reports whether every output was
// correct.
func runAll(out io.Writer, ws []*workload, opt options) (bool, error) {
	res := jsonReport{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range ws {
		r, err := runWorkload(w, w.pinned, opt)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Correct = res.Correct && r.correct
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range r.metrics {
			fmt.Fprintf(out, "%-18s %-26s %14.6g %s\n", w.name, m.name, m.value, m.unit)
			key := m.name
			if len(ws) > 1 {
				key = w.name + "/" + m.name
			}
			res.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(line))
	return res.Correct, nil
}

// loop is the record of one closed-loop measured run: per-pass costs
// and every trial's outcome.
type loop struct {
	walls, cpus, allocs []float64
	outs                [][]outcome
	errs                [][]error
	counts              counts // of the first pass
}

// runLoop runs passes over the plan's trials, one trial at a time,
// until the budget is spent (at least one pass). Each trial starts
// from a collected heap, outside its timing, so no trial pays for its
// predecessor's garbage and the collector paces every trial alike; a
// pass's wall time, CPU time and allocation sum its trials'.
func runLoop(p *plan, budget time.Duration, tr *tracer) *loop {
	l := &loop{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		tr.pass = pass
		outs := make([]outcome, len(p.trials))
		errs := make([]error, len(p.trials))
		var cnt counts
		var wall, cpu, alloc float64
		for i, t := range p.trials {
			tr.trial = i
			runtime.GC()
			w0, c0, a0 := time.Now(), cpuSeconds(), allocBytes()
			var c counts
			if p.snap != nil {
				outs[i], c, errs[i] = runFork(t, p.snap, tr)
			} else {
				outs[i], c, errs[i] = runCold(t, tr)
			}
			wall += time.Since(w0).Seconds()
			cpu += cpuSeconds() - c0
			alloc += float64(allocBytes()-a0) / 1e6
			cnt.add(c)
		}
		l.walls = append(l.walls, wall)
		l.cpus = append(l.cpus, cpu)
		l.allocs = append(l.allocs, alloc)
		l.outs = append(l.outs, outs)
		l.errs = append(l.errs, errs)
		if pass == 0 {
			l.counts = cnt
		}
	}
	return l
}

// runWorkload sets the workload up, runs the measured loop (and the
// traced one), gates the outputs and assembles the metrics.
func runWorkload(w *workload, sz size, opt options) (*report, error) {
	var p *plan
	setups := make([]float64, 0, w.setupReps)
	for i := 0; i < w.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < w.setupBatch; j++ {
			var err error
			if p, err = w.setup(sz, opt.seed, &tracer{}); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(w.setupBatch))
	}
	timed := runLoop(p, opt.budget, &tracer{})
	rss := peakRSSMB()
	fmt.Fprintf(os.Stderr, "%s: %d passes, wall per pass min %.4f median %.4f max %.4f s\n",
		w.name, len(timed.walls), slices.Min(timed.walls), median(timed.walls), slices.Max(timed.walls))
	loops := []*loop{timed}
	var tl *traced
	if opt.trace {
		var err error
		if tl, err = runTraced(w, sz, opt); err != nil {
			return nil, err
		}
		loops = append(loops, tl.loop)
	}
	attempted, failed, err := gate(w, sz, opt.seed, p, loops)
	if err != nil {
		return nil, err
	}
	r := &report{correct: failed == 0, attempted: attempted, failed: failed}
	if !opt.trace {
		r.metrics = []metric{
			{"setup_s", "s", median(setups)},
			{"run_s", "s", median(timed.walls)},
			{"cpu_s", "s", median(timed.cpus)},
			{"alloc_mb", "MB", median(timed.allocs)},
			{"peak_rss_mb", "MB", rss},
		}
		return r, nil
	}
	r.metrics = tl.metrics(median(timed.walls))
	if opt.traceDir != "" {
		if err := tl.write(opt.traceDir, w.name, opt.seed, r.metrics); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// gate checks every trial of every pass: against the pinned digests
// for the pinned size and default seed, otherwise against lab's own
// execution of the same trials, computed here, outside the timed part.
// A trial counts as failed when it errored, its outcome differs, or its
// pass's Figure 2 fit differs.
func gate(w *workload, sz size, seed int64, p *plan, loops []*loop) (attempted, failed int, err error) {
	want, wantFit, pinned := pinnedOutcomes(w, sz, seed)
	check := func(i int, o outcome) bool { return o == want[i] }
	if pinned {
		if p.snap != nil && len(p.snap) != pinnedSnapshotBytes {
			fmt.Fprintf(os.Stderr, "%s: snapshot is %d bytes, pinned %d\n", w.name, len(p.snap), pinnedSnapshotBytes)
			check = func(int, outcome) bool { return false }
		}
	} else {
		ref, refFit, err := p.reference()
		if err != nil {
			return 0, 0, fmt.Errorf("reference run: %w", err)
		}
		if len(ref) != len(p.trials) {
			return 0, 0, fmt.Errorf("reference returned %d results for %d trials", len(ref), len(p.trials))
		}
		wantFit = refFit
		// lab.Result has no event count: every pass must repeat the
		// first's exactly.
		first := loops[0].outs[0]
		check = func(i int, o outcome) bool { return o.sameResult(ref[i]) && o.Events == first[i].Events }
	}
	for _, l := range loops {
		for pass, outs := range l.outs {
			passOK := true
			for i, o := range outs {
				attempted++
				switch {
				case l.errs[pass][i] != nil:
					fmt.Fprintf(os.Stderr, "%s: pass %d trial %d: %v\n", w.name, pass, i, l.errs[pass][i])
				case !check(i, o):
					fmt.Fprintf(os.Stderr, "%s: pass %d trial %d: wrong output %v\n", w.name, pass, i, o)
				default:
					continue
				}
				failed++
				passOK = false
			}
			if passOK && p.cells != nil {
				if got := p.passFit(outs); !got.matches(wantFit) {
					fmt.Fprintf(os.Stderr, "%s: pass %d: fit %v, want %v\n", w.name, pass, got, wantFit)
					failed += len(outs)
				}
			}
		}
	}
	return attempted, failed, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
