package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/lab"
	"repro/internal/topology"
)

// The trial pipeline, driven from outside through the layers' public
// calls in the order lab.Trial.Run makes them, so every phase can be
// timed on its own. The correctness gate compares the outcomes with
// lab's own execution of the same trials.

// phases are the span names, in pipeline order.
var phases = []string{"topology", "build", "establish", "warmup", "snapshot", "fork", "measure"}

// outcome is one trial's simulated result: what the correctness gate
// compares. Events is the kernel's event count over the trial (not part
// of lab.Result, so only pinned digests and run-to-run equality check
// it).
type outcome struct {
	Convergence     time.Duration
	UpdatesSent     uint64
	UpdatesReceived uint64
	BestPathChanges int
	Recomputes      uint64
	Events          uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("conv=%v sent=%d recv=%d bpc=%d recomp=%d events=%d",
		o.Convergence, o.UpdatesSent, o.UpdatesReceived, o.BestPathChanges, o.Recomputes, o.Events)
}

// sameResult reports whether o matches lab's result for the same trial.
func (o outcome) sameResult(r lab.Result) bool {
	return o.Convergence == r.Convergence && o.UpdatesSent == r.UpdatesSent &&
		o.UpdatesReceived == r.UpdatesReceived && o.BestPathChanges == r.BestPathChanges &&
		o.Recomputes == r.Recomputes
}

// counts are the deterministic per-layer work counters of one or more
// trials, read from the layers' public counters around the trial's
// simulated phases (establishment, warm-up, measurement).
type counts struct {
	Events, Delivered, Dropped, Bytes uint64
	UpdatesSent, UpdatesRecv, Resets  uint64
	BestPathChanges                   int
	Recomputes, RouteEvents, FlowMods uint64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.Bytes += o.Bytes
	c.UpdatesSent += o.UpdatesSent
	c.UpdatesRecv += o.UpdatesRecv
	c.Resets += o.Resets
	c.BestPathChanges += o.BestPathChanges
	c.Recomputes += o.Recomputes
	c.RouteEvents += o.RouteEvents
	c.FlowMods += o.FlowMods
}

// read captures the experiment's cumulative counters.
func read(e *experiment.Experiment) counts {
	var c counts
	c.Events = e.K.Events()
	c.Delivered, c.Dropped, c.Bytes = e.Net.Delivered, e.Net.Dropped, e.Net.BytesDelivered
	c.UpdatesSent, c.UpdatesRecv = e.UpdateTotals()
	for _, r := range e.Routers {
		c.Resets += r.Stats().SessionResets
	}
	if e.Ctrl != nil {
		st := e.Ctrl.Stats()
		c.Recomputes, c.RouteEvents, c.FlowMods = st.Recomputes, st.RouteEvents, st.FlowModsSent
	}
	return c
}

// since returns the counters accumulated between two reads.
func since(before, after counts) counts {
	return counts{
		Events:      after.Events - before.Events,
		Delivered:   after.Delivered - before.Delivered,
		Dropped:     after.Dropped - before.Dropped,
		Bytes:       after.Bytes - before.Bytes,
		UpdatesSent: after.UpdatesSent - before.UpdatesSent,
		UpdatesRecv: after.UpdatesRecv - before.UpdatesRecv,
		Resets:      after.Resets - before.Resets,
		Recomputes:  after.Recomputes - before.Recomputes,
		RouteEvents: after.RouteEvents - before.RouteEvents,
		FlowMods:    after.FlowMods - before.FlowMods,
	}
}

// span is one timed phase of one trial.
type span struct {
	Phase  string        `json:"phase"`
	Pass   int           `json:"pass"`
	Trial  int           `json:"trial"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	AllocB uint64        `json:"alloc_bytes"`
}

// tracer records phase spans in memory and sets the pprof phase label
// while a phase runs. The zero value is off: phases run untimed.
type tracer struct {
	on          bool
	t0          time.Time
	pass, trial int
	spans       []span
}

// phase runs f as the named phase of the current trial.
func (tr *tracer) phase(name string, f func() error) error {
	if !tr.on {
		return f()
	}
	start, a0 := time.Now(), allocBytes()
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { err = f() })
	tr.spans = append(tr.spans, span{
		Phase: name, Pass: tr.pass, Trial: tr.trial,
		Start: start.Sub(tr.t0), Dur: time.Since(start), AllocB: allocBytes() - a0,
	})
	return err
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the bytes allocated on the heap since the process
// started.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// defaults fills the lab.Trial defaults the pipeline needs.
func defaults(t lab.Trial) lab.Trial {
	if t.Timers == (bgp.Timers{}) {
		t.Timers = bgp.DefaultTimers()
	}
	if t.Timeout == 0 {
		t.Timeout = 2 * time.Hour
	}
	if t.EstablishTimeout == 0 {
		t.EstablishTimeout = 5 * time.Minute
	}
	return t
}

// origin is the AS whose prefix every benchmark trial withdraws.
const origin = topology.BaseASN

// runCold runs one trial from scratch and measures the origin's
// withdrawal.
func runCold(t lab.Trial, tr *tracer) (outcome, counts, error) {
	t = defaults(t)
	e, base, err := warm(t, tr)
	if err != nil {
		return outcome{}, counts{}, err
	}
	return measure(e, t, base, tr)
}

// warm builds the topology and picks the cluster, builds the
// experiment, establishes every session and converges the warm-up
// announcements. It returns the experiment and its counters as built.
func warm(t lab.Trial, tr *tracer) (*experiment.Experiment, counts, error) {
	var cfg experiment.Config
	err := tr.phase("topology", func() error {
		g, err := t.Topo.Build(rand.New(rand.NewSource(t.TopoSeed)))
		if err != nil {
			return err
		}
		members, err := t.Placement.Select(g)
		if err != nil {
			return err
		}
		pol, err := t.Policy.Build(g)
		if err != nil {
			return err
		}
		cfg = experiment.Config{
			Seed: t.Seed, Graph: g, SDNMembers: members, Policy: pol,
			Timers: t.Timers, Debounce: t.Debounce, Settle: t.Settle,
			ProcessingDelay: t.ProcessingDelay, LinkDelay: t.LinkDelay,
			LinkJitter: t.LinkJitter, LinkLoss: t.LinkLoss, Damping: t.Damping, Tuning: t.Tuning,
		}
		return nil
	})
	if err != nil {
		return nil, counts{}, err
	}
	var e *experiment.Experiment
	if err := tr.phase("build", func() (err error) {
		e, err = experiment.New(cfg)
		return err
	}); err != nil {
		return nil, counts{}, err
	}
	base := read(e)
	if err := tr.phase("establish", func() error {
		if err := e.Start(); err != nil {
			return err
		}
		return e.WaitEstablished(t.EstablishTimeout)
	}); err != nil {
		return nil, counts{}, err
	}
	if err := tr.phase("warmup", func() error {
		for _, asn := range e.ASNs() {
			if t.OriginOnly && asn != origin {
				continue
			}
			if err := e.Announce(asn); err != nil {
				return err
			}
		}
		_, err := e.WaitConverged(t.Timeout)
		return err
	}); err != nil {
		return nil, counts{}, err
	}
	return e, base, nil
}

// runFork restores the warmed-up snapshot under the trial's own seed
// and measures the origin's withdrawal.
func runFork(t lab.Trial, snap []byte, tr *tracer) (outcome, counts, error) {
	t = defaults(t)
	var e *experiment.Experiment
	if err := tr.phase("fork", func() (err error) {
		e, err = t.RestoreWarmup(snap)
		return err
	}); err != nil {
		return outcome{}, counts{}, err
	}
	return measure(e, t, read(e), tr)
}

// measure withdraws the origin's prefix and waits for convergence,
// then reads the outcome and the counters accumulated since base.
func measure(e *experiment.Experiment, t lab.Trial, base counts, tr *tracer) (outcome, counts, error) {
	prefix, err := e.OriginPrefix(origin)
	if err != nil {
		return outcome{}, counts{}, err
	}
	before := read(e)
	start := e.K.Now()
	var conv time.Duration
	if err := tr.phase("measure", func() (err error) {
		conv, err = e.MeasureConvergence(func() error { return e.Withdraw(origin) }, t.Timeout)
		return err
	}); err != nil {
		return outcome{}, counts{}, err
	}
	after := read(e)
	o := outcome{
		Convergence:     conv,
		UpdatesSent:     after.UpdatesSent - before.UpdatesSent,
		UpdatesReceived: after.UpdatesRecv - before.UpdatesRecv,
		Recomputes:      after.Recomputes - before.Recomputes,
		Events:          after.Events - base.Events,
	}
	for _, n := range e.Log.PathExplorationCount(prefix, start) {
		o.BestPathChanges += n
	}
	c := since(base, after)
	c.BestPathChanges = o.BestPathChanges
	return o, c, nil
}
