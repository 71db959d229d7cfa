package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestSingleFlowFinishesAtSizeOverCapacity(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100) // 100 B/s
	var done float64 = -1
	f.StartFlow(250, []*Resource{r}, func() { done = s.Now() })
	s.Run()
	approx(t, done, 2.5, 1e-9, "single flow completion")
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var t1, t2 float64
	f.StartFlow(100, []*Resource{r}, func() { t1 = s.Now() })
	f.StartFlow(100, []*Resource{r}, func() { t2 = s.Now() })
	s.Run()
	// Both run at 50 B/s until the first finishes... they're equal, so both
	// finish at t=2.
	approx(t, t1, 2.0, 1e-9, "flow1")
	approx(t, t2, 2.0, 1e-9, "flow2")
}

func TestShorterFlowFinishesThenLongerSpeedsUp(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var t1, t2 float64
	f.StartFlow(50, []*Resource{r}, func() { t1 = s.Now() })
	f.StartFlow(150, []*Resource{r}, func() { t2 = s.Now() })
	s.Run()
	// Phase 1: both at 50 B/s; flow1 done at t=1 (50B). Flow2 has 100B left,
	// now alone at 100 B/s: done at t=2.
	approx(t, t1, 1.0, 1e-9, "short flow")
	approx(t, t2, 2.0, 1e-9, "long flow")
}

func TestFlowJoiningMidTransferSlowsExisting(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var t1 float64
	f.StartFlow(100, []*Resource{r}, func() { t1 = s.Now() })
	s.At(0.5, func() {
		f.StartFlow(1000, []*Resource{r}, func() {})
	})
	s.Run()
	// Flow1: 50B in first 0.5s at 100 B/s, then 50B at 50 B/s = 1s more.
	approx(t, t1, 1.5, 1e-9, "slowed flow")
}

func TestMaxMinAllocationWithUnevenPaths(t *testing.T) {
	// Classic max-min example: flows A and B share link X (cap 100); flow B
	// also crosses link Y (cap 30). B is bottlenecked at 30 by Y, so A gets
	// the leftover 70 on X.
	s := NewSim(1)
	f := NewFabric(s)
	x := NewResource("x", 100)
	y := NewResource("y", 30)
	a := f.StartFlow(1e9, []*Resource{x}, func() {})
	b := f.StartFlow(1e9, []*Resource{x, y}, func() {})
	approx(t, a.Rate(), 70, 1e-9, "rate A")
	approx(t, b.Rate(), 30, 1e-9, "rate B")
	// Stop the sim without running the huge flows to completion.
	f.Cancel(a)
	f.Cancel(b)
	s.Run()
}

func TestDisjointFlowsDoNotInteract(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r1 := NewResource("r1", 100)
	r2 := NewResource("r2", 200)
	f1 := f.StartFlow(1e6, []*Resource{r1}, func() {})
	f2 := f.StartFlow(1e6, []*Resource{r2}, func() {})
	approx(t, f1.Rate(), 100, 1e-9, "disjoint rate 1")
	approx(t, f2.Rate(), 200, 1e-9, "disjoint rate 2")
	f.Cancel(f1)
	f.Cancel(f2)
}

func TestCancelledFlowNeverCompletes(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	done := false
	fl := f.StartFlow(100, []*Resource{r}, func() { done = true })
	s.At(0.5, func() { f.Cancel(fl) })
	s.Run()
	if done {
		t.Error("cancelled flow completed")
	}
	if r.ActiveFlows() != 0 {
		t.Errorf("resource still has %d flows after cancel", r.ActiveFlows())
	}
}

func TestCancelReleasesBandwidthToSurvivors(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var t1 float64
	fl1 := f.StartFlow(100, []*Resource{r}, func() { t1 = s.Now() })
	fl2 := f.StartFlow(1000, []*Resource{r}, func() {})
	_ = fl1
	s.At(0.5, func() { f.Cancel(fl2) })
	s.Run()
	// Flow1: 25B in first 0.5s (sharing), then 75B alone at 100 B/s.
	approx(t, t1, 1.25, 1e-9, "survivor completion")
}

// A completion that fires while the flow still holds a residue the clock can
// resolve must be requeued even though the flow's rate is unchanged;
// otherwise the flow never completes and the queue drains without it.
func TestCompletionFiredEarlyIsRescheduled(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var done float64 = -1
	fl := f.StartFlow(100, []*Resource{r}, func() { done = s.Now() })
	s.At(0.5, func() { fl.remaining += 0.5 })
	s.Run()
	approx(t, done, 1.005, 1e-9, "completion after residue")
	if n := s.Pending(); n != 0 {
		t.Errorf("Pending = %d after Run, want 0", n)
	}
}

func TestZeroSizeFlowCompletesImmediately(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var done float64 = -1
	f.StartFlow(0, []*Resource{r}, func() { done = s.Now() })
	s.Run()
	approx(t, done, 0, 1e-12, "zero-size flow")
}

func TestManySequentialFlowsConserveWork(t *testing.T) {
	// 100 flows of 10B each through a 100 B/s pipe, all started at t=0,
	// must finish at exactly t=10 (work conservation).
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var last float64
	for i := 0; i < 100; i++ {
		f.StartFlow(10, []*Resource{r}, func() { last = s.Now() })
	}
	s.Run()
	approx(t, last, 10.0, 1e-6, "work conservation")
}

func TestSetCapacityMidFlowSlowsCompletion(t *testing.T) {
	// A capacity cut must settle the flow's progress and retime its
	// completion immediately — not wait for an unrelated flow event.
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	var done float64 = -1
	f.StartFlow(100, []*Resource{r}, func() { done = s.Now() })
	s.At(0.5, func() { r.SetCapacity(50) })
	s.Run()
	// 50 B in the first 0.5 s at 100 B/s, then 50 B at 50 B/s: 1.5 s total.
	approx(t, done, 1.5, 1e-9, "completion after capacity cut")
}

func TestSetCapacityMidFlowSpeedsCompletion(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 50)
	var done float64 = -1
	fl := f.StartFlow(100, []*Resource{r}, func() { done = s.Now() })
	s.At(1.0, func() {
		r.SetCapacity(200)
		approx(t, fl.Rate(), 200, 1e-9, "rate after capacity raise")
	})
	s.Run()
	// 50 B in the first second at 50 B/s, then 50 B at 200 B/s: 1.25 s.
	approx(t, done, 1.25, 1e-9, "completion after capacity raise")
}

func TestSetCapacityReallocatesWholeComponent(t *testing.T) {
	// Shrinking link Y must also hand X's freed share back to flow A:
	// the whole component reallocates, not just flows crossing Y.
	s := NewSim(1)
	f := NewFabric(s)
	x := NewResource("x", 100)
	y := NewResource("y", 30)
	a := f.StartFlow(1e9, []*Resource{x}, func() {})
	b := f.StartFlow(1e9, []*Resource{x, y}, func() {})
	approx(t, a.Rate(), 70, 1e-9, "rate A before")
	s.At(1.0, func() {
		y.SetCapacity(10)
		approx(t, a.Rate(), 90, 1e-9, "rate A after shrinking y")
		approx(t, b.Rate(), 10, 1e-9, "rate B after shrinking y")
		f.Cancel(a)
		f.Cancel(b)
	})
	s.Run()
}

func TestSetCapacityIdleResource(t *testing.T) {
	s := NewSim(1)
	f := NewFabric(s)
	r := NewResource("r", 100)
	r.SetCapacity(25) // no flows yet: just records the value
	approx(t, r.Capacity(), 25, 0, "idle capacity update")
	var done float64 = -1
	f.StartFlow(50, []*Resource{r}, func() { done = s.Now() })
	s.Run()
	approx(t, done, 2.0, 1e-9, "flow at updated capacity")
}

func TestSetCapacityRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive capacity")
		}
	}()
	NewResource("r", 100).SetCapacity(0)
}

func TestNewResourceRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive capacity")
		}
	}()
	NewResource("bad", 0)
}

func TestStartFlowRejectsEmptyPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty path")
		}
	}()
	NewFabric(NewSim(1)).StartFlow(1, nil, func() {})
}

// TestQuickWorkConservation is a property test of the fluid fabric: for any
// set of flows pushed through one shared bottleneck, total completion time
// equals total bytes over capacity (max-min sharing never wastes capacity),
// and flows finish in size order.
func TestQuickWorkConservation(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 40 {
			return true
		}
		s := NewSim(1)
		fab := NewFabric(s)
		r := NewResource("shared", 1000)
		var total float64
		var last float64
		for _, raw := range sizesRaw {
			size := float64(raw%5000) + 1
			total += size
			fab.StartFlow(size, []*Resource{r}, func() { last = s.Now() })
		}
		s.Run()
		want := total / 1000
		return math.Abs(last-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickDisjointPairsRunAtFullRate checks that any number of disjoint
// sender→receiver pairs all progress at wire speed simultaneously — the
// property the binomial pipeline's performance rests on.
func TestQuickDisjointPairsRunAtFullRate(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%30 + 1
		s := NewSim(1)
		fab := NewFabric(s)
		done := 0
		for i := 0; i < n; i++ {
			tx := NewResource("tx", 100)
			rx := NewResource("rx", 100)
			fab.StartFlow(100, []*Resource{tx, rx}, func() { done++ })
		}
		end := s.Run()
		return done == n && math.Abs(end-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
