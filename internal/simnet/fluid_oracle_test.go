package simnet

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file checks the fabric's ordering machinery — the name-rank tie-break
// of the waterfill, the discovery-ordered working set, and the slot bitmap
// that recovers a component's id order — against a naive reference fabric
// that finds components by map-based BFS, sorts them by id, and scans its
// resources in name order. The reference keeps the production waterfill's
// lazy re-validation (a resource's offered share is re-read when it comes up,
// and re-offered if it moved), so both round identically and every rate and
// completion time must match exactly.

type refResource struct {
	name     string
	capacity float64
	flows    []*refFlow
}

type refFlow struct {
	id         int64
	tag        int
	remaining  float64
	rate       float64
	lastUpdate float64
	path       []*refResource
	ev         *Event
	finished   bool
	fixed      bool
}

// firing is one flow completion: the test's tag for the flow and the time.
type firing struct {
	tag int
	at  float64
}

type refFabric struct {
	sim    *Sim
	nextID int64
	fired  []firing
}

func (f *refFabric) start(tag int, size float64, path []*refResource) *refFlow {
	fl := &refFlow{id: f.nextID, tag: tag, remaining: size, path: path, lastUpdate: f.sim.Now()}
	f.nextID++
	fl.ev = f.sim.NewEvent(func() { f.finish(fl) })
	comp := f.component(path)
	f.settle(comp)
	for _, r := range path {
		r.flows = append(r.flows, fl)
	}
	f.reallocate(append(comp, fl))
	return fl
}

func (f *refFabric) cancel(fl *refFlow) {
	if fl.finished {
		return
	}
	fl.ev.Cancel()
	f.retire(fl)
}

func (f *refFabric) finish(fl *refFlow) {
	comp := f.component(fl.path)
	f.settle(comp)
	if !f.finishable(fl) {
		f.reallocate(comp)
		return
	}
	f.retire(fl)
	f.fired = append(f.fired, firing{fl.tag, f.sim.Now()})
}

func (f *refFabric) retire(fl *refFlow) {
	comp := f.component(fl.path)
	f.settle(comp)
	fl.finished = true
	for _, r := range fl.path {
		r.flows = slices.DeleteFunc(r.flows, func(g *refFlow) bool { return g == fl })
	}
	f.reallocate(slices.DeleteFunc(comp, func(g *refFlow) bool { return g == fl }))
}

func (f *refFabric) setCapacity(r *refResource, c float64) {
	if len(r.flows) == 0 {
		r.capacity = c
		return
	}
	comp := f.component([]*refResource{r})
	f.settle(comp)
	r.capacity = c
	f.reallocate(comp)
}

// component is a plain BFS, sorted by id afterwards.
func (f *refFabric) component(path []*refResource) []*refFlow {
	seenRes := map[*refResource]bool{}
	seenFlow := map[*refFlow]bool{}
	stack := slices.Clone(path)
	var flows []*refFlow
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seenRes[r] {
			continue
		}
		seenRes[r] = true
		for _, fl := range r.flows {
			if !seenFlow[fl] {
				seenFlow[fl] = true
				flows = append(flows, fl)
				stack = append(stack, fl.path...)
			}
		}
	}
	slices.SortFunc(flows, func(a, b *refFlow) int { return cmp.Compare(a.id, b.id) })
	return flows
}

func (f *refFabric) settle(flows []*refFlow) {
	now := f.sim.Now()
	for _, fl := range flows {
		if dt := now - fl.lastUpdate; dt > 0 {
			fl.remaining -= fl.rate * dt
			if fl.remaining < 0 {
				fl.remaining = 0
			}
		}
		fl.lastUpdate = now
	}
}

func (f *refFabric) finishable(fl *refFlow) bool {
	now := f.sim.Now()
	tick := math.Nextafter(now, math.Inf(1)) - now
	return fl.remaining <= completionSlack || fl.remaining <= fl.rate*tick*4
}

// reallocate waterfills the component over its resources sorted by name:
// each round takes the resource with the smallest offered share, first in
// name order on ties.
func (f *refFabric) reallocate(flows []*refFlow) {
	if len(flows) == 0 {
		return
	}
	prev := make([]float64, len(flows))
	idx := map[*refResource]int{}
	var res []*refResource
	for i, fl := range flows {
		prev[i] = fl.rate
		fl.fixed = false
		for _, r := range fl.path {
			if _, ok := idx[r]; !ok {
				idx[r] = -1
				res = append(res, r)
			}
		}
	}
	slices.SortFunc(res, func(a, b *refResource) int { return cmp.Compare(a.name, b.name) })
	capLeft := make([]float64, len(res))
	count := make([]int, len(res))
	offer := make([]float64, len(res))
	pending := make([]bool, len(res))
	for i, r := range res {
		idx[r] = i
		capLeft[i] = r.capacity
	}
	for _, fl := range flows {
		for _, r := range fl.path {
			count[idx[r]]++
		}
	}
	for i := range res {
		offer[i] = capLeft[i] / float64(count[i])
		pending[i] = true
	}
	unfixed := len(flows)
	for unfixed > 0 {
		best := -1
		for i := range res {
			if pending[i] && (best < 0 || offer[i] < offer[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if count[best] == 0 {
			pending[best] = false
			continue
		}
		if cur := capLeft[best] / float64(count[best]); cur != offer[best] {
			offer[best] = cur
			continue
		}
		pending[best] = false
		share := offer[best]
		for _, fl := range res[best].flows {
			if fl.fixed {
				continue
			}
			fl.fixed = true
			fl.rate = share
			unfixed--
			for _, r := range fl.path {
				j := idx[r]
				capLeft[j] -= share
				if capLeft[j] < 0 {
					capLeft[j] = 0
				}
				count[j]--
			}
		}
	}
	for i, fl := range flows {
		if fl.ev.Scheduled() && sameRate(fl.rate, prev[i]) {
			continue
		}
		eta := 0.0
		if !f.finishable(fl) {
			eta = fl.remaining / fl.rate
		}
		fl.ev.Schedule(f.sim.Now() + eta)
	}
}

func TestFabricOrderingMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkFabricAgainstReference(t, seed) })
	}
}

func checkFabricAgainstReference(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sim, refSim := NewSim(seed), NewSim(seed)
	fab := NewFabric(sim)
	ref := &refFabric{sim: refSim}

	// Resources come into use in shuffled name order, a few at a time, so
	// registrations keep inserting ahead of live ranks. Capacities come
	// from a small set, so equal fair shares — the tie-break — are common.
	const nRes = 48
	caps := []float64{100, 200, 300}
	var fabRes []*Resource
	var refRes []*refResource
	for _, i := range rng.Perm(nRes) {
		c := caps[rng.Intn(len(caps))]
		name := fmt.Sprintf("res%02d", i)
		fabRes = append(fabRes, NewResource(name, c))
		refRes = append(refRes, &refResource{name: name, capacity: c})
	}
	inUse := 4

	var fired []firing
	type pair struct {
		fab *Flow
		ref *refFlow
	}
	var live []pair
	randomPath := func() []int {
		return rng.Perm(inUse)[:1+rng.Intn(min(4, inUse))]
	}
	compacted := false
	started := 0

	for op := 0; op < 8000; op++ {
		registered := len(fab.allFlows)
		switch k := rng.Intn(100); {
		case k < 45:
			if inUse < nRes && rng.Intn(20) == 0 {
				inUse++
			}
			picks := randomPath()
			path := make([]*Resource, len(picks))
			refPath := make([]*refResource, len(picks))
			for i, p := range picks {
				path[i], refPath[i] = fabRes[p], refRes[p]
			}
			size := float64(1 + rng.Intn(400))
			tag := started
			started++
			fl := fab.StartFlow(size, path, func() { fired = append(fired, firing{tag, sim.Now()}) })
			live = append(live, pair{fl, ref.start(tag, size, refPath)})
		case k < 52 && len(live) > 0:
			i := rng.Intn(len(live))
			fab.Cancel(live[i].fab)
			ref.cancel(live[i].ref)
		case k < 60:
			i := rng.Intn(inUse)
			c := caps[rng.Intn(len(caps))] * float64(1+rng.Intn(2))
			fabRes[i].SetCapacity(c)
			ref.setCapacity(refRes[i], c)
		default:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				a, b := sim.Step(), refSim.Step()
				if a != b || sim.Now() != refSim.Now() {
					t.Fatalf("op %d: step diverged: fabric (%v, t=%v), reference (%v, t=%v)", op, a, sim.Now(), b, refSim.Now())
				}
			}
		}
		if len(fab.allFlows) < registered {
			compacted = true
		}

		live = slices.DeleteFunc(live, func(p pair) bool { return p.fab.finished })
		for _, p := range live {
			if p.ref.finished {
				t.Fatalf("op %d: flow %d finished in the reference only", op, p.fab.id)
			}
			if p.fab.rate != p.ref.rate {
				t.Fatalf("op %d: flow %d rate %v, reference %v", op, p.fab.id, p.fab.rate, p.ref.rate)
			}
			if p.fab.ev.Scheduled() != p.ref.ev.Scheduled() || p.fab.ev.Time() != p.ref.ev.Time() {
				t.Fatalf("op %d: flow %d completion at %v, reference %v", op, p.fab.id, p.fab.ev.Time(), p.ref.ev.Time())
			}
		}
		if !slices.Equal(fired, ref.fired) {
			t.Fatalf("op %d: completions fired %v, reference %v", op, fired, ref.fired)
		}

		// component() against the reference BFS from a random path.
		picks := randomPath()
		path := make([]*Resource, len(picks))
		refPath := make([]*refResource, len(picks))
		for i, p := range picks {
			path[i], refPath[i] = fabRes[p], refRes[p]
		}
		got := fab.component(path)
		want := ref.component(refPath)
		if len(got) != len(want) {
			t.Fatalf("op %d: component has %d flows, reference BFS %d", op, len(got), len(want))
		}
		for i := range got {
			if i > 0 && got[i].id <= got[i-1].id {
				t.Fatalf("op %d: component ids not strictly increasing: %d then %d", op, got[i-1].id, got[i].id)
			}
			if got[i].id != want[i].id {
				t.Fatalf("op %d: component[%d] is flow %d, reference %d", op, i, got[i].id, want[i].id)
			}
		}
		for i, r := range fab.allResources {
			if int(r.order) != i || (i > 0 && fab.allResources[i-1].name >= r.name) {
				t.Fatalf("op %d: registry slot %d holds %q with rank %d", op, i, r.name, r.order)
			}
		}
		for w, m := range fab.marks {
			if m != 0 {
				t.Fatalf("op %d: slot bitmap word %d = %#x after component()", op, w, m)
			}
		}
	}
	if started <= 1024 || !compacted {
		t.Fatalf("started %d flows, compacted %v: want > 1024 flows and a registry compaction", started, compacted)
	}
	if len(fired) == 0 {
		t.Fatal("no flow completed")
	}
}
