// Package simnet is a deterministic discrete-event network simulator used as
// the substitute for RDMA hardware in this reproduction of RDMC (DSN 2018).
//
// It has three layers:
//
//   - an event engine with a virtual clock (this file),
//   - a fluid-flow fabric that models full-duplex NIC ports, shared switch
//     trunks, and max-min fair bandwidth allocation (fluid.go), which is the
//     steady state that datacenter congestion control (DCQCN, TIMELY)
//     converges to, and
//   - a per-node CPU model that accounts for software overheads, completion
//     delivery modes (polling / interrupt / hybrid), and injected scheduling
//     delays (cpu.go).
//
// All time is float64 seconds of virtual time. A simulation run is fully
// deterministic for a fixed seed: simultaneous events fire in the order they
// were scheduled.
package simnet

import (
	"math/rand"
	"time"
)

// Sim is a discrete-event simulation engine with a virtual clock.
//
// The queue is a binary min-heap of value entries keyed by (time, seq), where
// seq is a per-Sim counter taken at scheduling time. Fire-and-forget
// callbacks (At, After) are bare entries. A cancellable callback is an Event
// handle that records its heap slot, so cancelling removes its entry and
// rescheduling moves it in place: the heap only ever holds live entries.
type Sim struct {
	now    float64
	seq    int64
	events []entry
	rng    *rand.Rand
}

// entry is one queued callback. ev is the owning handle of a cancellable
// event, nil for a fire-and-forget one; fn is nil for an event owned by a
// flow, which Step dispatches to the flow instead.
type entry struct {
	time float64
	seq  int64
	fn   func()
	ev   *Event
}

func (a *entry) less(b *entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// NewSim returns an engine whose clock starts at zero. The seed fixes all
// randomness used by delay injectors and workload generators attached to it.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// NowDuration returns the current virtual time as a time.Duration.
func (s *Sim) NowDuration() time.Duration {
	return time.Duration(s.now * float64(time.Second))
}

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// runs the event at the current time (events never travel backwards). Use
// NewEvent for a callback that may need cancelling or moving.
func (s *Sim) At(t float64, fn func()) {
	s.push(entry{time: s.clamp(t), seq: s.nextSeq(), fn: fn})
}

// After schedules fn to run d seconds of virtual time from now.
func (s *Sim) After(d float64, fn func()) {
	s.At(s.now+d, fn)
}

// NewEvent returns an unscheduled, reusable handle that runs fn each time it
// fires.
func (s *Sim) NewEvent(fn func()) *Event {
	return &Event{sim: s, fn: fn, index: -1}
}

// Run executes events until the queue is empty and returns the final time.
func (s *Sim) Run() float64 {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events with time ≤ deadline; remaining events stay queued.
// It reports whether the queue was drained.
func (s *Sim) RunUntil(deadline float64) bool {
	for len(s.events) > 0 {
		if s.events[0].time > deadline {
			s.now = deadline
			return false
		}
		s.Step()
	}
	return true
}

// Step executes the single earliest pending event. It reports whether an
// event was executed.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	s.removeAt(0)
	s.now = e.time
	if e.fn != nil {
		e.fn()
	} else {
		e.ev.owner.fire()
	}
	return true
}

// Pending reports the number of queued events. Cancelled events leave the
// queue immediately, so every queued event is live.
func (s *Sim) Pending() int { return len(s.events) }

func (s *Sim) clamp(t float64) float64 {
	if t < s.now {
		return s.now
	}
	return t
}

func (s *Sim) nextSeq() int64 {
	seq := s.seq
	s.seq++
	return seq
}

// Event is a handle to a cancellable callback. It can be scheduled, moved
// and cancelled any number of times; it is queued at most once at a time.
//
// An event embedded in a Flow has no callback: it fires the flow's current
// phase (Flow.fire), so the flow needs no closure of its own.
type Event struct {
	sim   *Sim
	fn    func()
	owner *Flow
	time  float64
	index int // heap slot while queued, -1 otherwise
}

// Schedule queues the event for absolute virtual time t (clamped to now), or
// moves it there if it is already queued. Either way it takes a fresh
// scheduling sequence number, so among events due at the same time it fires
// after every event scheduled before this call — exactly as if it had been
// cancelled and scheduled anew.
func (e *Event) Schedule(t float64) {
	s := e.sim
	e.time = s.clamp(t)
	en := entry{time: e.time, seq: s.nextSeq(), fn: e.fn, ev: e}
	if e.index < 0 {
		s.push(en)
		return
	}
	i := e.index
	s.events[i] = en
	if !s.up(i) {
		s.down(i)
	}
}

// Cancel removes the event from the queue. Cancelling an event that is not
// queued — never scheduled, already fired, or already cancelled — is a no-op.
func (e *Event) Cancel() {
	if e.index >= 0 {
		e.sim.removeAt(e.index)
	}
}

// Scheduled reports whether the event is queued.
func (e *Event) Scheduled() bool { return e.index >= 0 }

// Time returns the virtual time the event was last scheduled for.
func (e *Event) Time() float64 { return e.time }

func (s *Sim) push(e entry) {
	s.events = append(s.events, e)
	s.up(len(s.events) - 1)
}

// removeAt deletes the entry in slot i, clearing its handle's slot.
func (s *Sim) removeAt(i int) {
	h := s.events
	if ev := h[i].ev; ev != nil {
		ev.index = -1
	}
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
	}
	h[n] = entry{}
	s.events = h[:n]
	if i != n && !s.up(i) {
		s.down(i)
	}
}

// set stores e in slot i and records the slot on its handle.
func (s *Sim) set(i int, e entry) {
	s.events[i] = e
	if e.ev != nil {
		e.ev.index = i
	}
}

// up sifts slot i toward the root and reports whether it moved. The slot's
// handle index is brought up to date either way.
func (s *Sim) up(i int) bool {
	h := s.events
	e := h[i]
	start := i
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(&h[p]) {
			break
		}
		s.set(i, h[p])
		i = p
	}
	s.set(i, e)
	return i != start
}

// down sifts slot i toward the leaves.
func (s *Sim) down(i int) {
	h := s.events
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&e) {
			break
		}
		s.set(i, h[c])
		i = c
	}
	s.set(i, e)
}
