package simnet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSimRunsEventsInTimeOrder(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.At(3.0, func() { got = append(got, 3) })
	s.At(1.0, func() { got = append(got, 1) })
	s.At(2.0, func() { got = append(got, 2) })
	end := s.Run()
	if end != 3.0 {
		t.Errorf("end time = %v, want 3.0", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimTieBreaksBySchedulingOrder(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", got)
		}
	}
}

func TestSimAfterIsRelative(t *testing.T) {
	s := NewSim(1)
	var at float64
	s.At(5.0, func() {
		s.After(2.5, func() { at = s.Now() })
	})
	s.Run()
	if at != 7.5 {
		t.Errorf("After fired at %v, want 7.5", at)
	}
}

func TestSimPastEventRunsNow(t *testing.T) {
	s := NewSim(1)
	var at float64 = -1
	s.At(5.0, func() {
		s.At(1.0, func() { at = s.Now() })
	})
	s.Run()
	if at != 5.0 {
		t.Errorf("past event fired at %v, want clamped to 5.0", at)
	}
}

func TestSimCancelledEventDoesNotFire(t *testing.T) {
	s := NewSim(1)
	fired := false
	ev := s.NewEvent(func() { fired = true })
	ev.Schedule(1.0)
	ev.Cancel()
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestSimRunUntilStopsAtDeadline(t *testing.T) {
	s := NewSim(1)
	var fired []float64
	s.At(1.0, func() { fired = append(fired, 1.0) })
	s.At(3.0, func() { fired = append(fired, 3.0) })
	drained := s.RunUntil(2.0)
	if drained || s.Pending() != 1 {
		t.Errorf("RunUntil(2) drained=%v Pending=%d, want one event left", drained, s.Pending())
	}
	if len(fired) != 1 || fired[0] != 1.0 {
		t.Errorf("fired = %v, want [1.0]", fired)
	}
	if s.Now() != 2.0 {
		t.Errorf("Now = %v, want deadline 2.0", s.Now())
	}
	if !s.RunUntil(10.0) || s.Pending() != 0 {
		t.Errorf("second RunUntil should drain the queue (Pending %d)", s.Pending())
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v, want both events", fired)
	}
}

func TestSimPendingCountsLiveEvents(t *testing.T) {
	s := NewSim(1)
	s.At(1, func() {})
	ev := s.NewEvent(func() {})
	ev.Schedule(2)
	ev.Cancel()
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
}

func TestSimDeterministicRand(t *testing.T) {
	a := NewSim(42).Rand().Int63()
	b := NewSim(42).Rand().Int63()
	if a != b {
		t.Error("same seed produced different random streams")
	}
}

// oracleEntry is one live callback in the reference queue: a plain slice
// kept in (time, seq) order by insertion.
type oracleEntry struct {
	time float64
	seq  int64
	id   int
}

type oracle struct {
	now     float64
	seq     int64
	entries []oracleEntry
}

func (o *oracle) schedule(t float64, id int) {
	if t < o.now {
		t = o.now
	}
	e := oracleEntry{time: t, seq: o.seq, id: id}
	o.seq++
	i := sort.Search(len(o.entries), func(i int) bool {
		x := o.entries[i]
		return x.time > e.time || (x.time == e.time && x.seq > e.seq)
	})
	o.entries = slices.Insert(o.entries, i, e)
}

// cancel removes id's entry and reports whether it was queued.
func (o *oracle) cancel(id int) bool {
	for i, e := range o.entries {
		if e.id == id {
			o.entries = slices.Delete(o.entries, i, i+1)
			return true
		}
	}
	return false
}

// TestSimMatchesSortedOracle drives the heap with random sequences of
// fire-and-forget pushes, handle schedules, in-place reschedules, cancels and
// steps, and checks every firing and every queue length against a naive
// sorted-slice queue. Times sit on a coarse grid so (time, seq) ties are
// common, and some land in the past to exercise clamping.
func TestSimMatchesSortedOracle(t *testing.T) {
	const handles = 6
	var cases struct{ ties, clamps, moves, cancelFired, requeueFired int }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(seed)
		var o oracle
		var fired []int
		nextID := handles
		evs := make([]*Event, handles)
		firedOnce := make([]bool, handles)
		for h := range evs {
			h := h
			evs[h] = s.NewEvent(func() { fired = append(fired, h) })
		}
		when := func() float64 {
			t := s.Now() + float64(rng.Intn(4)) - 1
			if t < s.Now() {
				cases.clamps++
			}
			return t
		}
		step := func() {
			want := o.entries[0]
			if len(o.entries) > 1 && o.entries[1].time == want.time {
				cases.ties++
			}
			o.entries = o.entries[1:]
			o.now = want.time
			fired = fired[:0]
			if !s.Step() {
				t.Fatalf("seed %d: Step found an empty queue, oracle expects id %d", seed, want.id)
			}
			if len(fired) != 1 || fired[0] != want.id || s.Now() != want.time {
				t.Fatalf("seed %d: fired %v at %v, oracle expects id %d at %v",
					seed, fired, s.Now(), want.id, want.time)
			}
			if want.id < handles {
				firedOnce[want.id] = true
			}
		}
		for op := 0; op < 3000; op++ {
			h := rng.Intn(handles)
			switch k := rng.Intn(10); {
			case k < 2:
				id := nextID
				nextID++
				t := when()
				s.At(t, func() { fired = append(fired, id) })
				o.schedule(t, id)
			case k < 3:
				id := nextID
				nextID++
				d := float64(rng.Intn(3))
				s.After(d, func() { fired = append(fired, id) })
				o.schedule(s.Now()+d, id)
			case k < 6:
				queued := o.cancel(h)
				if queued != evs[h].Scheduled() {
					t.Fatalf("seed %d: handle %d Scheduled = %v, oracle %v", seed, h, evs[h].Scheduled(), queued)
				}
				switch {
				case queued:
					cases.moves++
				case firedOnce[h]:
					cases.requeueFired++
				}
				t := when()
				evs[h].Schedule(t)
				o.schedule(t, h)
			case k < 7:
				if !o.cancel(h) && firedOnce[h] {
					cases.cancelFired++
				}
				evs[h].Cancel()
			default:
				if len(o.entries) > 0 {
					step()
				}
			}
			if got, want := s.Pending(), len(o.entries); got != want {
				t.Fatalf("seed %d op %d: Pending = %d, oracle holds %d", seed, op, got, want)
			}
		}
		for len(o.entries) > 0 {
			step()
		}
		if s.Step() || s.Pending() != 0 {
			t.Fatalf("seed %d: queue not drained with the oracle (Pending %d)", seed, s.Pending())
		}
	}
	if cases.ties == 0 || cases.clamps == 0 || cases.moves == 0 || cases.cancelFired == 0 || cases.requeueFired == 0 {
		t.Errorf("random sequences missed a case: %+v", cases)
	}
}
