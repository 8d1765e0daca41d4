package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/stats"
)

// size is a workload's scale. The pinned sizes are the benchmark's;
// the self-test runs the same code at tiny ones.
type size struct {
	Topo      lab.TopoSpec
	SDNCounts []int // fig2: the sdn-count axis
	Runs      int   // fig2: seeded runs per axis point
	K         int   // vf: cluster size
	Forks     int   // fork: forks per pass
}

// topoSeed seeds the internet-like graphs of vf and fork for every
// workload seed.
const topoSeed = 1

// fit is the Figure 2 linear fit over per-cell median convergence.
type fit struct {
	PureMedian, Slope, R2 float64
}

// plan is a workload after set-up: the trials of one pass, in order,
// and what the correctness gate checks them against.
type plan struct {
	trials []lab.Trial
	// snap, when non-nil, is the encoded warm-up every trial forks
	// from (RestoreWarmup under the trial's own seed).
	snap []byte
	// cells groups the pass's trials by sdn-count cell (fig2): the fit
	// is computed over their median convergence. Nil for no fit.
	cells [][]int
	// nodes is the topology size, the fit's fraction denominator.
	nodes int
	// reference runs the same trials through lab's own execution
	// (outside the timed part) and returns its results, in pass order,
	// and its fit when the plan has cells.
	reference func() ([]lab.Result, fit, error)
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// pinned is the benchmark's size.
	pinned size
	// setup_s is the median of setupReps timings, each the mean of
	// setupBatch set-ups (cold set-ups take microseconds).
	setupReps, setupBatch int
	setup                 func(sz size, seed int64, tr *tracer) (*plan, error)
}

// The workloads, each chosen to stress layers the others do not; see
// README.md for the per-layer metrics each should move.
var workloads = []*workload{
	// The paper's Figure 2 at its pinned configuration. Pure-BGP cells
	// are path-exploration bound (bgp, wire, rib, sim, netem) with a
	// full-table warm-up; clustered cells exercise core.
	{
		name:      "fig2-clique16",
		pinned:    size{Topo: lab.TopoSpec{Kind: "clique", N: 16}, SDNCounts: []int{0, 4, 8, 12, 16}, Runs: 3},
		setupReps: 11, setupBatch: 5000,
		setup: setupFig2,
	},
	// The large-graph cold path: topology generation and degree
	// placement, experiment.New and core recompute on a 500-member
	// cluster, with the RIB holding one prefix.
	{
		name:      "vf-internet1000",
		pinned:    size{Topo: lab.TopoSpec{Kind: "internet", N: 1000}, K: 500},
		setupReps: 11, setupBatch: 20000,
		setup: setupVF,
	},
	// The snapshot-fork path: JSON decode, network rebuild and restore,
	// then measurement, with no core and no warm-up in the loop.
	{
		name:      "fork-internet1000",
		pinned:    size{Topo: lab.TopoSpec{Kind: "internet", N: 1000}, Forks: 4},
		setupReps: 3, setupBatch: 1,
		setup: setupFork,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildSweep resolves a registry figure with the benchmark's overrides.
// Parallelism 1: one trial at a time, in this process.
func buildSweep(name string, o figures.Options) (lab.Sweep, error) {
	spec, ok := figures.Lookup(name)
	if !ok {
		return lab.Sweep{}, fmt.Errorf("figure %q not registered", name)
	}
	o.Parallelism = 1
	return spec.Build(o)
}

// sweepTrial instantiates (cell, run) of a sweep as Sweep.Run does:
// the axis applied, the documented per-run seed, and the topology
// seed pinned to the sweep's BaseSeed.
func sweepTrial(sw lab.Sweep, cell, run int) lab.Trial {
	t := sw.Base
	sw.Axis.Apply(&t, cell)
	t.Seed = sw.BaseSeed + int64(run)
	if sw.SeedPolicy == lab.SeedCellRun {
		t.Seed = sw.BaseSeed + int64(run)*1000 + int64(sw.Axis.Value(cell))
	}
	t.TopoSeed = sw.BaseSeed
	return t
}

// setupFig2 resolves Figure 2 at the given size with BaseSeed seed:
// every (cell, run) trial of the sweep is one pass.
func setupFig2(sz size, seed int64, _ *tracer) (*plan, error) {
	topo := sz.Topo
	sw, err := buildSweep("fig2", figures.Options{Topo: &topo, SDNCounts: sz.SDNCounts, Runs: sz.Runs, BaseSeed: seed})
	if err != nil {
		return nil, err
	}
	p := &plan{nodes: topo.Nodes()}
	for ci := 0; ci < sw.Axis.Len(); ci++ {
		var cell []int
		for run := 0; run < sw.Runs; run++ {
			cell = append(cell, len(p.trials))
			p.trials = append(p.trials, sweepTrial(sw, ci, run))
		}
		p.cells = append(p.cells, cell)
	}
	p.reference = func() ([]lab.Result, fit, error) {
		res, err := sw.Run()
		if err != nil {
			return nil, fit{}, err
		}
		var out []lab.Result
		for _, c := range res.Cells {
			out = append(out, c.Results...)
		}
		_, slope, r2, _ := res.Fit()
		return out, fit{PureMedian: res.Cells[0].Summary.Median, Slope: slope, R2: r2}, nil
	}
	return p, nil
}

// setupVF resolves the vf figure's cell at sdn count K on the graph of
// BaseSeed 1, with run seed seed: that trial is one pass. The graph
// stays fixed because trial cost varies with it far more than with the
// run seed (MRAI jitter).
func setupVF(sz size, seed int64, _ *tracer) (*plan, error) {
	topo := sz.Topo
	sw, err := buildSweep("vf", figures.Options{Topo: &topo, SDNCounts: []int{sz.K}, Runs: 1, BaseSeed: topoSeed})
	if err != nil {
		return nil, err
	}
	t := sweepTrial(sw, 0, 0)
	t.Seed = seed
	return &plan{trials: []lab.Trial{t}, reference: func() ([]lab.Result, fit, error) {
		r, err := t.Run()
		return []lab.Result{r}, fit{}, err
	}}, nil
}

// forkTrial is the fork workload's trial: pure BGP under Gao-Rexford
// policy, origin-only warm-up, withdrawal, the policy figures' 25ms
// processing delay and default timers (MRAI 30s with jitter).
func forkTrial(topo lab.TopoSpec, seed int64) lab.Trial {
	return lab.Trial{
		Topo:            topo,
		Placement:       lab.Placement{Strategy: lab.PlaceNone},
		Policy:          lab.PolicySpec{Kind: lab.PolicyGaoRexford},
		Event:           lab.Withdrawal,
		ProcessingDelay: 25 * time.Millisecond,
		OriginOnly:      true,
		Seed:            seed,
		TopoSeed:        topoSeed,
	}
}

// setupFork warms the fork trial up cold and encodes its snapshot; a
// pass is Forks restores of it under seeds seed*1000+1, +2, ...
func setupFork(sz size, seed int64, tr *tracer) (*plan, error) {
	base := defaults(forkTrial(sz.Topo, seed))
	e, _, err := warm(base, tr)
	if err != nil {
		return nil, err
	}
	var raw []byte
	if err := tr.phase("snapshot", func() error {
		snap, err := e.Snapshot()
		if err != nil {
			return err
		}
		raw, err = experiment.EncodeSnapshot(snap)
		return err
	}); err != nil {
		return nil, err
	}
	p := &plan{snap: raw}
	for i := 1; i <= sz.Forks; i++ {
		t := forkTrial(sz.Topo, seed)
		t.Seed = seed*1000 + int64(i)
		p.trials = append(p.trials, t)
	}
	p.reference = func() ([]lab.Result, fit, error) {
		want, err := forkTrial(sz.Topo, seed).WarmupSnapshot()
		if err != nil {
			return nil, fit{}, err
		}
		if !bytes.Equal(want, raw) {
			return nil, fit{}, fmt.Errorf("set-up snapshot differs from lab.Trial.WarmupSnapshot (%d vs %d bytes)", len(raw), len(want))
		}
		var out []lab.Result
		for _, t := range p.trials {
			// Serve the set-up snapshot under this fork's warm-up key,
			// so RunWithSnapshots restores it as a cache hit.
			key, err := t.WarmupKeyHash()
			if err != nil {
				return nil, fit{}, err
			}
			cache := lab.NewMemorySnapshotCache()
			if err := cache.Store(key, raw); err != nil {
				return nil, fit{}, err
			}
			r, hit, err := t.RunWithSnapshots(cache)
			if err != nil {
				return nil, fit{}, err
			}
			if !hit {
				return nil, fit{}, fmt.Errorf("fork seed %d: snapshot cache missed", t.Seed)
			}
			out = append(out, r)
		}
		return out, fit{}, nil
	}
	return p, nil
}

// passFit computes the Figure 2 fit over one pass's outcomes, as
// lab.SweepResult.Fit does: per-cell median convergence against the
// cell's SDN fraction.
func (p *plan) passFit(outs []outcome) fit {
	xs := make([]float64, len(p.cells))
	ys := make([]float64, len(p.cells))
	for ci, cell := range p.cells {
		ds := make([]time.Duration, len(cell))
		for j, ti := range cell {
			ds[j] = outs[ti].Convergence
		}
		xs[ci] = float64(p.trials[cell[0]].Placement.K) / float64(p.nodes)
		ys[ci] = stats.SummarizeDurations(ds).Median
	}
	_, slope, r2 := stats.LinearFit(xs, ys)
	return fit{PureMedian: ys[0], Slope: slope, R2: r2}
}

// close3 reports whether a and b agree to the three decimals the
// paper's pinned figures are quoted with.
func close3(a, b float64) bool { return math.Round(a*1000) == math.Round(b*1000) }

func (f fit) matches(g fit) bool {
	return close3(f.PureMedian, g.PureMedian) && close3(f.Slope, g.Slope) && close3(f.R2, g.R2)
}

func (f fit) String() string {
	return fmt.Sprintf("pure-median=%.3fs slope=%.3f r2=%.4f", f.PureMedian, f.Slope, f.R2)
}
