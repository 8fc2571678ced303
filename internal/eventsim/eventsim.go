// Package eventsim is a minimal discrete-event simulation engine shared by
// the cloud-level simulator (request arrivals and departures) and the
// MapReduce job simulator (task and transfer completions). Events carry a
// virtual timestamp and a callback; the engine pops them in time order,
// advancing a virtual clock. Callbacks may schedule further events.
package eventsim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is one scheduled callback.
type Event struct {
	Time  float64
	Fn    func(now float64)
	class int // timestamp tie-break before seq; At/After use class 0
	seq   int // FIFO tie-break among equal (Time, class)
	idx   int // heap index, -1 once popped or cancelled
}

// Engine owns the event queue and the virtual clock. It is single-
// goroutine by design: discrete-event simulation is inherently sequential
// in virtual time, and determinism matters more than parallel speed at the
// paper's scales.
type Engine struct {
	now    float64
	events eventHeap
	seq    int
	runs   int
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int { return e.runs }

// At schedules fn at absolute virtual time t, which must be finite and
// must not precede the current clock. It returns a handle usable with
// Cancel.
func (e *Engine) At(t float64, fn func(now float64)) (*Event, error) {
	return e.AtClass(t, 0, fn)
}

// AtClass schedules fn at time t in the given tie-break class: among
// events with equal timestamps, lower classes fire first regardless of
// insertion order, and equal classes fall back to FIFO insertion order.
// At and After schedule in class 0; a negative class lets an event
// scheduled late (e.g. a lazily-pulled trace arrival) still outrank
// same-timestamp events that entered the heap earlier.
func (e *Engine) AtClass(t float64, class int, fn func(now float64)) (*Event, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		// A NaN would slip past the ordering checks below (every
		// comparison is false) and silently corrupt the heap order.
		return nil, fmt.Errorf("eventsim: non-finite event time %v", t)
	}
	if t < e.now {
		return nil, fmt.Errorf("eventsim: cannot schedule at %v, clock is at %v", t, e.now)
	}
	if fn == nil {
		return nil, fmt.Errorf("eventsim: nil callback")
	}
	ev := &Event{Time: t, Fn: fn, class: class, seq: e.seq}
	e.seq++
	heap.Push(&e.events, ev)
	return ev, nil
}

// After schedules fn delay time units from now.
func (e *Engine) After(delay float64, fn func(now float64)) (*Event, error) {
	if delay < 0 {
		return nil, fmt.Errorf("eventsim: negative delay %v", delay)
	}
	return e.At(e.now+delay, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a harmless no-op returning false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.idx < 0 {
		return false
	}
	heap.Remove(&e.events, ev.idx)
	ev.idx = -1
	return true
}

// Step executes the single earliest event, advancing the clock. It
// returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*Event)
	ev.idx = -1
	e.now = ev.Time
	e.runs++
	ev.Fn(e.now)
	return true
}

// Run drains the queue completely and returns the final clock value.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil processes events with Time ≤ deadline, then advances the clock
// to exactly the deadline (even if idle). Events scheduled later survive.
func (e *Engine) RunUntil(deadline float64) float64 {
	for len(e.events) > 0 && e.events[0].Time <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// eventHeap orders by (Time, class, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

//lint:hotpath
func (h *eventHeap) Push(x interface{}) {
	ev := x.(*Event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}

//lint:hotpath
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
