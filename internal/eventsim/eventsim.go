// Package eventsim implements the discrete-event simulation kernel under
// the cluster and policy simulations.
//
// The kernel is a classic event-list simulator: a binary heap of pending
// events ordered by (time, sequence number), a virtual clock that jumps
// from event to event, and helpers for periodic activities such as the
// reallocation intervals of the cluster protocol. Determinism matters more
// than concurrency here — the paper's experiments are statistical sweeps
// over seeds, so the kernel is single-threaded and ties between events at
// the same instant break by schedule order.
package eventsim

import (
	"container/heap"
	"fmt"

	"ealb/internal/units"
)

// Handler is the action executed when an event fires. It runs with the
// simulation clock set to the event's time and may schedule further events.
type Handler func(now units.Seconds)

// event is one pending entry on the event list.
type event struct {
	at      units.Seconds
	seq     uint64 // schedule order, breaks time ties deterministically
	handler Handler
	stopped bool
	index   int // position in the heap, maintained by heap.Interface
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct{ ev *event }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.stopped = true
	}
}

// eventQueue implements heap.Interface over pending events.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Simulator owns the virtual clock and the event list.
type Simulator struct {
	now     units.Seconds
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64
}

// New returns a simulator with the clock at zero and an empty event list.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() units.Seconds { return s.now }

// Reset returns the simulator to its initial state: clock at zero, event
// list empty, sequence and fired counters cleared. Pending events are
// discarded without firing. The queue's backing array is retained, so a
// rebuilt simulation reuses it. A Reset simulator is indistinguishable
// from one freshly built by New.
func (s *Simulator) Reset() {
	for i := range s.queue {
		s.queue[i] = nil
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
}

// Fired returns how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled (including
// cancelled events not yet discarded).
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule runs h at absolute virtual time at. Scheduling in the past
// (before the current clock) is a programming error and panics: silently
// reordering causality hides protocol bugs.
func (s *Simulator) Schedule(at units.Seconds, h Handler) Handle {
	if at < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", at, s.now))
	}
	ev := &event{at: at, seq: s.seq, handler: h}
	s.seq++
	heap.Push(&s.queue, ev)
	return Handle{ev: ev}
}

// Every schedules h to run every period, starting at time start. The
// returned ticker can be stopped. A non-positive period panics.
func (s *Simulator) Every(start, period units.Seconds, h Handler) *Ticker {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	t := &Ticker{sim: s, period: period, handler: h}
	t.handle = s.Schedule(start, t.fire)
	return t
}

// Ticker re-arms a handler every fixed period of virtual time.
type Ticker struct {
	sim     *Simulator
	period  units.Seconds
	handler Handler
	handle  Handle
	stopped bool
	ticks   int
}

func (t *Ticker) fire(now units.Seconds) {
	if t.stopped {
		return
	}
	t.ticks++
	t.handler(now)
	if !t.stopped {
		t.handle = t.sim.Schedule(now+t.period, t.fire)
	}
}

// Stop cancels all future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Ticks returns how many times the ticker has fired.
func (t *Ticker) Ticks() int { return t.ticks }

// Stop halts Run and RunUntil after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// step executes the earliest pending event. It reports false when the
// event list is empty.
func (s *Simulator) step() bool {
	for len(s.queue) > 0 {
		ev := heap.Pop(&s.queue).(*event)
		if ev.stopped {
			continue
		}
		s.now = ev.at
		s.fired++
		ev.handler(s.now)
		return true
	}
	return false
}

// Run executes events until the list drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// RunUntil executes events with time <= deadline, then advances the clock
// to the deadline. Events scheduled beyond the deadline stay pending.
func (s *Simulator) RunUntil(deadline units.Seconds) {
	s.stopped = false
	for !s.stopped {
		// Peek: the heap root is the earliest event.
		var next *event
		for len(s.queue) > 0 && s.queue[0].stopped {
			heap.Pop(&s.queue)
		}
		if len(s.queue) > 0 {
			next = s.queue[0]
		}
		if next == nil || next.at > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
