package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Epoch is the instant at which every Kernel starts. A fixed epoch keeps
// runs reproducible and log timestamps comparable across experiments.
var Epoch = time.Date(2014, 8, 18, 0, 0, 0, 0, time.UTC)

// Kernel is a deterministic discrete-event scheduler implementing Clock.
//
// Events execute strictly in (time, sequence) order on the goroutine that
// calls Run, Step or RunUntil. Two events scheduled for the same instant
// run in the order they were scheduled. The zero Kernel is not usable;
// call NewKernel.
//
// Pending events live in one binary heap keyed by (time, seq); the
// kernel pops and executes them one at a time. Stopped events are
// cancelled lazily and discarded when they reach the top. Times are
// kept as durations since Epoch so heap comparisons are plain integer
// compares.
type Kernel struct {
	now    time.Duration // virtual time elapsed since Epoch
	seq    uint64
	queue  eventHeap
	rng    *rand.Rand
	src    *CountingSource
	seed   int64
	events uint64 // total events executed

	// MaxEvents aborts Run with ErrEventBudget once this many events
	// have executed, guarding against livelock (e.g. mutually
	// re-scheduling timers). Zero means no limit.
	MaxEvents uint64

	// WallLimit aborts the Run family with ErrWallBudget once that much
	// real (wall-clock) time has been spent stepping events, guarding a
	// runaway cell against hanging its worker when the virtual clock
	// stops advancing. Zero means no limit. The guard is checked every
	// wallCheckEvery events, so it never perturbs a run that finishes
	// within its budget — virtual-time results stay deterministic.
	WallLimit time.Duration
	wallStart time.Time
}

// ErrEventBudget is returned by the Run family when MaxEvents is hit.
var ErrEventBudget = fmt.Errorf("sim: event budget exhausted")

// ErrWallBudget is returned by the Run family when WallLimit is
// exceeded.
var ErrWallBudget = fmt.Errorf("sim: wall-clock budget exhausted")

// wallCheckEvery is how many events pass between wall-clock checks.
const wallCheckEvery = 4096

// overBudget reports whether either execution budget is exhausted. It
// is consulted by the Run family after every event.
func (k *Kernel) overBudget() error {
	if k.MaxEvents > 0 && k.events >= k.MaxEvents {
		return ErrEventBudget
	}
	if k.WallLimit > 0 && k.events%wallCheckEvery == 0 {
		if k.wallStart.IsZero() {
			//lint:walltime the wall budget measures real runtime by design; it aborts a run, never shapes its results
			k.wallStart = time.Now()
			//lint:walltime the wall budget measures real runtime by design; it aborts a run, never shapes its results
		} else if time.Since(k.wallStart) > k.WallLimit {
			return ErrWallBudget
		}
	}
	return nil
}

// NewKernel returns a Kernel whose clock reads Epoch and whose random
// source is seeded with seed. The source is draw-counted (see
// CountingSource) so a snapshot can record exactly how far the stream
// has advanced and a restore can replay it to the same point.
func NewKernel(seed int64) *Kernel {
	src := NewCountingSource(seed)
	return &Kernel{
		rng:  rand.New(src),
		src:  src,
		seed: seed,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return Epoch.Add(k.now) }

// Rand returns the kernel's deterministic random source. All randomness
// in an experiment (jitter, loss, tie-breaks) must come from here so a
// seed fully determines a run.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Elapsed returns how much virtual time has passed since Epoch.
func (k *Kernel) Elapsed() time.Duration { return k.now }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.events }

// Pending returns the number of scheduled, not-yet-fired events.
// Because cancellation is lazy, events stopped but not yet discarded
// are still counted.
func (k *Kernel) Pending() int { return k.queue.Len() }

// Go schedules fn as a zero-delay event.
func (k *Kernel) Go(fn func()) { k.AfterFunc(0, fn) }

// AfterFunc schedules fn to run d from now. Negative d is treated as 0.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: AfterFunc with nil function")
	}
	ev := &event{at: k.deadline(d), kernel: k}
	ev.fn = func() { ev.fired = true; fn() }
	k.schedule(ev)
	return &simTimer{k: k, ev: ev, fn: fn}
}

// deadline returns the virtual time d from now, treating negative d as
// 0 and saturating instead of overflowing.
func (k *Kernel) deadline(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	if d > math.MaxInt64-k.now {
		return math.MaxInt64
	}
	return k.now + d
}

// schedule assigns the next scheduling sequence number and pushes the
// event onto the heap.
func (k *Kernel) schedule(ev *event) {
	k.seq++
	ev.seq = k.seq
	heap.Push(&k.queue, ev)
}

// nextEvent pops the earliest live pending event, or returns nil when
// the kernel is quiescent.
func (k *Kernel) nextEvent() *event {
	ev := k.peekQueue()
	if ev != nil {
		heap.Pop(&k.queue)
	}
	return ev
}

// peekQueue returns the earliest live pending event without popping
// it, first discarding cancelled events from the top of the heap, or
// nil when the kernel is quiescent.
func (k *Kernel) peekQueue() *event {
	for k.queue.Len() > 0 {
		if ev := k.queue[0]; !ev.cancelled {
			return ev
		}
		heap.Pop(&k.queue)
	}
	return nil
}

// Step executes the single earliest pending event, advancing the clock
// to its timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	ev := k.nextEvent()
	if ev == nil {
		return false
	}
	if ev.at > k.now {
		k.now = ev.at
	}
	k.events++
	ev.fn()
	return true
}

// Run executes events until the queue is empty (the simulation is
// quiescent) or an execution budget is exhausted.
func (k *Kernel) Run() error {
	for k.Step() {
		if err := k.overBudget(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t. Events scheduled beyond t remain pending.
func (k *Kernel) RunUntil(t time.Time) error {
	until := t.Sub(Epoch)
	for {
		ev := k.peekQueue()
		if ev == nil || ev.at > until {
			break
		}
		k.Step()
		if err := k.overBudget(); err != nil {
			return err
		}
	}
	if until > k.now {
		k.now = until
	}
	return nil
}

// RunFor executes events for the next d of virtual time.
func (k *Kernel) RunFor(d time.Duration) error { return k.RunUntil(k.Now().Add(d)) }

// RunWhile executes events as long as cond returns true and events
// remain. It evaluates cond after every event.
func (k *Kernel) RunWhile(cond func() bool) error {
	for cond() {
		if !k.Step() {
			return nil
		}
		if err := k.overBudget(); err != nil {
			return err
		}
	}
	return nil
}

// event is a scheduled callback. index is the event's position in the
// kernel's heap (-1 once popped), which lets timers reschedule an
// event in place instead of allocating a replacement per Reset.
type event struct {
	at        time.Duration // deadline, since Epoch
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
	kernel    *Kernel
	index     int
}

// simTimer implements Timer over a kernel event.
type simTimer struct {
	k  *Kernel
	ev *event
	fn func()
}

func (t *simTimer) Stop() bool {
	if t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Reset reschedules the timer, reusing its event: if the event is
// still in the heap (pending or lazily cancelled) it is re-keyed in
// place with heap.Fix; if it already fired or was popped, the same
// struct is reset and pushed again. Either way the MRAI-churn path
// allocates nothing, and the sequence counter advances exactly once
// per Reset.
func (t *simTimer) Reset(d time.Duration) bool {
	ev := t.ev
	was := ev != nil && !ev.cancelled && !ev.fired
	ev.cancelled = false
	ev.fired = false
	ev.at = t.k.deadline(d)
	if ev.index >= 0 {
		t.k.seq++
		ev.seq = t.k.seq
		heap.Fix(&t.k.queue, ev.index)
	} else {
		t.k.schedule(ev)
	}
	return was
}

func (t *simTimer) Active() bool {
	return t.ev != nil && !t.ev.cancelled && !t.ev.fired
}

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
