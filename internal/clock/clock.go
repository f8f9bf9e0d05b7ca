// Package clock provides the notion of time used throughout the middleware
// and a deterministic discrete-event engine.
//
// The paper's emulation (Section VI.B) drives 1000 transactions with a 0.5 s
// inter-arrival time against a Python prototype in real time. Here the same
// arrival process, think times and disconnection windows run on a virtual
// clock: the Simulator advances time instantaneously from event to event, so
// a multi-minute experiment completes in milliseconds and is bit-for-bit
// reproducible under a fixed seed. Production use (cmd/gtmd) plugs in the
// wall clock instead; nothing else changes.
package clock

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"
)

// Clock supplies the current time. Implementations must be safe for
// concurrent use.
type Clock interface {
	Now() time.Time
}

// Wall is the real-time clock.
type Wall struct{}

// Now returns time.Now().
func (Wall) Now() time.Time { return time.Now() }

// Sleep pauses the calling goroutine for d of real time. Packages that
// must stay simulation-deterministic (gtmlint/clockinject) call it instead
// of time.Sleep, so every real-time wait in them is named as one (the
// GTM's SST retry backoff, zero unless a backoff base is configured).
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// Every runs fn every interval of real time until ctx is cancelled. It is
// the injected-clock home for the ticker loop pattern: wall-clock drivers
// (cmd/gtmd's supervisor) call it, while simulations schedule the
// equivalent cadence as Simulator events and never spin a real ticker.
func Every(ctx context.Context, interval time.Duration, fn func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			fn()
		}
	}
}

// Epoch is the instant virtual clocks start at. The concrete value is
// arbitrary; a fixed epoch keeps simulation logs stable.
var Epoch = time.Date(2008, time.April, 7, 0, 0, 0, 0, time.UTC) // ICDE 2008 week

// event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // FIFO tie-break for events at the same instant
	fn  func()
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Simulator is a virtual clock plus a discrete-event scheduler. Events are
// executed strictly in timestamp order (FIFO within one instant); each
// executing event may schedule further events. The zero value is not ready;
// use NewSimulator.
type Simulator struct {
	mu    sync.Mutex
	now   time.Time
	seq   uint64
	queue eventQueue
	steps uint64
}

// NewSimulator returns a simulator whose clock reads Epoch.
func NewSimulator() *Simulator {
	return &Simulator{now: Epoch}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Elapsed returns the virtual time elapsed since Epoch.
func (s *Simulator) Elapsed() time.Duration {
	return s.Now().Sub(Epoch)
}

// At schedules fn to run at the given virtual instant. Scheduling in the
// past (relative to the current virtual time) is an error that At reports by
// panicking: it always indicates a logic bug in the caller, never an
// environmental condition.
func (s *Simulator) At(t time.Time, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Before(s.now) {
		panic(fmt.Sprintf("clock: scheduling event at %v, before virtual now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative d is
// treated as zero.
func (s *Simulator) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	heap.Push(&s.queue, &event{at: s.now.Add(d), seq: s.seq, fn: fn})
}

// pop removes and returns the next event, advancing the clock to it.
func (s *Simulator) pop() *event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	s.steps++
	return e
}

// Run executes events in order until the queue is empty and returns the
// number of events executed. Event callbacks run on the caller's goroutine.
func (s *Simulator) Run() uint64 {
	var n uint64
	for {
		e := s.pop()
		if e == nil {
			return n
		}
		e.fn()
		n++
	}
}

// RunUntil executes events with timestamps ≤ deadline, leaving later events
// queued, and advances the clock to deadline (even if no event is pending at
// it). It returns the number of events executed.
func (s *Simulator) RunUntil(deadline time.Time) uint64 {
	var n uint64
	for {
		s.mu.Lock()
		if len(s.queue) == 0 || s.queue[0].at.After(deadline) {
			if s.now.Before(deadline) {
				s.now = deadline
			}
			s.mu.Unlock()
			return n
		}
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		s.steps++
		s.mu.Unlock()
		e.fn()
		n++
	}
}

// Step executes the single next event, if any, and reports whether one ran.
func (s *Simulator) Step() bool {
	e := s.pop()
	if e == nil {
		return false
	}
	e.fn()
	return true
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Steps returns the total number of events executed so far.
func (s *Simulator) Steps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// Manual is a settable clock for unit tests: a virtual clock without an
// event queue.
type Manual struct {
	mu  sync.Mutex
	now time.Time
}

// NewManual returns a Manual clock reading Epoch.
func NewManual() *Manual { return &Manual{now: Epoch} }

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d and returns the new reading.
func (m *Manual) Advance(d time.Duration) time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	return m.now
}

// Set moves the clock to t.
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = t
}
