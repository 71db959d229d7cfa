package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// completionSlack is the residual byte count below which a flow is considered
// finished; it absorbs float64 rounding across rate recomputations.
const completionSlack = 1e-3

// Resource is a capacity-limited element of the fabric: a NIC transmit port,
// a NIC receive port, or a shared switch trunk. Concurrent flows crossing a
// resource share its capacity max-min fairly.
type Resource struct {
	name     string
	capacity float64 // bytes per second
	flows    []*Flow
	fab      *Fabric // the fabric that last routed a flow across this resource

	// order is the resource's rank in its fabric's name-ordered registry,
	// renumbered whenever a registration inserts ahead of it. The waterfill
	// breaks share ties on it, so no per-event pass recovers name order.
	order int32

	// Generation-stamped scratch for the fabric's traversals. A resource
	// is "marked" when its stamp equals the fabric's current pass number,
	// which replaces per-pass map insertions — the dominant cost at many
	// hundreds of nodes — with a field compare. scratchIdx is the
	// resource's slot in the reallocation working set while scratchGen is
	// current.
	scratchGen uint64
	scratchIdx int32
	visitGen   uint64
}

// NewResource returns a resource with the given capacity in bytes per second.
func NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: resource %q capacity must be positive", name))
	}
	return &Resource{name: name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity in bytes per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// SetCapacity changes the capacity, immediately re-allocating the affected
// component: flows crossing the resource (and everything transitively
// sharing a resource with them) are settled — charged for progress at their
// old rates up to now — before the capacity changes, and their rates and
// completion events are then recomputed under the new allocation. Without
// the settle/reallocate pass, in-flight flows would keep stale rates until
// an unrelated flow event happened to touch their component. A resource
// carrying no flows just records the new value.
func (r *Resource) SetCapacity(c float64) {
	if c <= 0 {
		panic(fmt.Sprintf("simnet: resource %q capacity must be positive", r.name))
	}
	if r.fab == nil || len(r.flows) == 0 {
		r.capacity = c
		return
	}
	f := r.fab
	comp := f.component([]*Resource{r})
	f.settle(comp)
	r.capacity = c
	f.reallocate(comp)
}

// ActiveFlows returns the number of flows currently crossing the resource.
func (r *Resource) ActiveFlows() int { return len(r.flows) }

func (r *Resource) addFlow(f *Flow) { r.flows = append(r.flows, f) }

func (r *Resource) removeFlow(f *Flow) {
	for i, g := range r.flows {
		if g == f {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			return
		}
	}
}

// Flow is a bulk transfer in progress across a path of resources.
//
// A flow is also the whole of a cluster transfer (Cluster.Frame): it carries
// the endpoints, callback and result, holds its path inline, and its one
// event drives every phase — launch latency, fabric flow, then the
// reorder-delay or retry-timeout notice — so a simulated block transfer
// costs one allocation.
type Flow struct {
	id         int64
	slot       int     // index in the fabric's id-ordered registry
	remaining  float64 // bytes left at lastUpdate
	rate       float64 // bytes per second under the current allocation
	path       []*Resource
	lastUpdate float64 // virtual time at which remaining was settled
	fab        *Fabric
	onDone     func() // StartFlow's callback; nil for a cluster transfer
	ev         Event  // fires phase; in phaseFabric it is the completion
	phase      flowPhase
	finished   bool
	fixed      bool // waterfill scratch

	// Cluster transfer state; cluster is nil for a bare fabric flow.
	cluster  *Cluster
	src, dst NodeID
	notify   func(Outcome)
	extra    float64 // delay between landing and notice (reordering)
	result   Outcome
	pathBuf  [5]*Resource
}

// flowPhase selects what a flow's event does when it fires.
type flowPhase uint8

const (
	// phaseFabric: the flow's bytes should have landed; the fabric
	// finishes it (or reschedules, if a reallocation slowed it).
	phaseFabric flowPhase = iota
	// phaseLaunch: the NIC-pipeline latency has passed; the cluster starts
	// the fabric flow unless the path broke meanwhile.
	phaseLaunch
	// phaseNotify: the transfer reports its result to its callback.
	phaseNotify
)

func newFlow(sim *Sim, size float64) *Flow {
	fl := &Flow{remaining: size}
	fl.ev = Event{sim: sim, owner: fl, index: -1}
	return fl
}

// fire runs the flow's current phase; Sim.Step calls it for flow events.
func (fl *Flow) fire() {
	switch fl.phase {
	case phaseFabric:
		fl.fab.finish(fl)
	case phaseLaunch:
		fl.cluster.start(fl)
	default:
		fl.notify(fl.result)
	}
}

// Rate returns the flow's current allocated rate in bytes per second.
func (f *Flow) Rate() float64 { return f.rate }

// Fabric owns all flows and performs incremental max-min fair allocation.
// When a flow starts or finishes, only the connected component of flows that
// transitively share resources with it is re-allocated, which keeps large
// simulations (hundreds of nodes, each with an isolated sender/receiver pair)
// cheap. Every per-event pass is O(component): nothing scans the registries.
type Fabric struct {
	sim    *Sim
	nextID int64

	// gen numbers the traversal passes; resources stamped with the current
	// gen are "in the working set" without any map.
	gen uint64

	// allFlows is the id-ordered registry of flows the fabric has routed:
	// ids are handed out monotonically and flows append at the tail, so a
	// flow's slot (its index here) orders flows by id. Finished flows linger
	// until the registry is half dead; one compaction sweep then drops them
	// and renumbers the survivors' slots.
	allFlows     []*Flow
	finishedDead int

	// marks is component's bitmap over allFlows slots. Every call clears
	// the bits it set, so it is all-zero between calls.
	marks []uint64

	// allResources is the name-ordered registry of resources the fabric has
	// routed across; each resource's order field is its index here.
	allResources []*Resource

	// Traversal and reallocate scratch, reused across calls to keep the
	// per-flow-event allocation count flat in large simulations. Safe
	// because the fabric is driven from the single-threaded event loop and
	// neither component nor reallocate reenters itself.
	states    []resState
	prevRates []float64
	compFlows []*Flow
	compStack []*Resource
	heap      []shareEntry
}

// shareEntry is one lazy min-heap entry of the waterfill: a resource (by
// working-set index) keyed by the fair share it offered when pushed, with
// ties broken by the resource's name order. Max-min shares are monotone
// non-decreasing as flows fix, so a popped entry whose share went stale is
// simply re-pushed with its current share — the heap never has to delete.
type shareEntry struct {
	share float64
	order int32
	idx   int32
}

// NewFabric returns a fabric driven by the given simulation clock.
func NewFabric(sim *Sim) *Fabric {
	return &Fabric{sim: sim}
}

// StartFlow begins transferring size bytes across path. onDone runs at the
// virtual time the last byte arrives. A zero-size flow completes after one
// event-loop tick.
func (f *Fabric) StartFlow(size float64, path []*Resource, onDone func()) *Flow {
	if len(path) == 0 {
		panic("simnet: flow path must contain at least one resource")
	}
	fl := newFlow(f.sim, size)
	fl.path = path
	fl.onDone = onDone
	f.start(fl)
	return fl
}

// start routes a flow whose size and path are set: it takes the next id,
// joins the registry and its path's resources, and re-allocates the
// component it lands in.
func (f *Fabric) start(fl *Flow) {
	fl.id = f.nextID
	f.nextID++
	fl.fab = f
	fl.phase = phaseFabric
	fl.lastUpdate = f.sim.Now()
	fl.slot = len(f.allFlows)
	f.allFlows = append(f.allFlows, fl)
	if fl.slot>>6 >= len(f.marks) {
		f.marks = append(f.marks, 0)
	}
	comp := f.component(fl.path)
	f.settle(comp)
	for _, r := range fl.path {
		if r.fab != f {
			r.fab = f
			f.registerResource(r)
		}
		r.addFlow(fl)
	}
	comp = append(comp, fl)
	f.reallocate(comp)
}

// Cancel aborts a flow in progress (used for link/node failure injection).
// Its onDone callback never runs.
func (f *Fabric) Cancel(fl *Flow) {
	if fl.finished {
		return
	}
	fl.ev.Cancel()
	comp := f.component(fl.path)
	f.settle(comp)
	// Retire only after component() has read the registry: compaction
	// renumbers slots and must not drop the flow from its own component.
	f.retireFlow(fl)
	for _, r := range fl.path {
		r.removeFlow(fl)
	}
	f.reallocate(remove(comp, fl))
}

func (f *Fabric) finish(fl *Flow) {
	if fl.finished {
		return
	}
	comp := f.component(fl.path)
	f.settle(comp)
	if !f.finishable(fl) {
		// A later reallocation slowed this flow down; reschedule.
		f.reallocate(comp)
		return
	}
	f.retireFlow(fl)
	for _, r := range fl.path {
		r.removeFlow(fl)
	}
	f.reallocate(remove(comp, fl))
	if fl.cluster != nil {
		fl.cluster.landed(fl)
		return
	}
	fl.onDone()
}

// retireFlow marks a flow finished and compacts the id-ordered registry once
// it is mostly dead, keeping start's append-only invariant (compaction
// preserves order, so slots still order flows by id) and bounding registry
// growth over long runs.
func (f *Fabric) retireFlow(fl *Flow) {
	fl.finished = true
	f.finishedDead++
	if f.finishedDead*2 > len(f.allFlows) && len(f.allFlows) > 1024 {
		live := f.allFlows[:0]
		for _, g := range f.allFlows {
			if !g.finished {
				g.slot = len(live)
				live = append(live, g)
			}
		}
		clear(f.allFlows[len(live):])
		f.allFlows = live
		f.finishedDead = 0
	}
}

// registerResource inserts a newly routed resource into the name-ordered
// registry and renumbers the ranks at and after it. Runs once per resource
// lifetime, so the linear insert is fine.
func (f *Fabric) registerResource(r *Resource) {
	i, _ := slices.BinarySearchFunc(f.allResources, r, func(a, b *Resource) int {
		return strings.Compare(a.name, b.name)
	})
	f.allResources = slices.Insert(f.allResources, i, r)
	for j := i; j < len(f.allResources); j++ {
		f.allResources[j].order = int32(j)
	}
}

// component gathers every flow that transitively shares a resource with the
// given path, in id order. The traversal sets one bit per member in the slot
// bitmap; reading the set bits back between the lowest and highest touched
// word yields the members in slot — that is, id — order and clears the
// bitmap, in O(component + span/64) with no sort and no registry scan.
func (f *Fabric) component(path []*Resource) []*Flow {
	f.gen++
	gen := f.gen
	marks := f.marks
	lo, hi := len(marks), -1
	stack := f.compStack[:0]
	for _, r := range path {
		if r.visitGen != gen {
			r.visitGen = gen
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fl := range r.flows {
			w, bit := fl.slot>>6, uint64(1)<<(fl.slot&63)
			if marks[w]&bit != 0 {
				continue
			}
			marks[w] |= bit
			lo, hi = min(lo, w), max(hi, w)
			for _, rr := range fl.path {
				if rr.visitGen != gen {
					rr.visitGen = gen
					stack = append(stack, rr)
				}
			}
		}
	}
	flows := f.compFlows[:0]
	for w := lo; w <= hi; w++ {
		m := marks[w]
		marks[w] = 0
		for m != 0 {
			flows = append(flows, f.allFlows[w<<6|bits.TrailingZeros64(m)])
			m &= m - 1
		}
	}
	f.compFlows = flows
	f.compStack = stack[:0]
	return flows
}

// settle charges each flow for progress made at its current rate since its
// last settlement.
func (f *Fabric) settle(flows []*Flow) {
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

// reallocate runs max-min waterfilling over the component and reschedules
// each member flow's completion event. Its working set (per-resource residual
// state in discovery order, previous rates) lives on the Fabric and is reused
// across calls, so a steady stream of flow events allocates nothing here once
// the scratch has grown to the component size.
func (f *Fabric) reallocate(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	f.gen++
	gen := f.gen
	f.prevRates = f.prevRates[:0]
	f.states = f.states[:0]
	for _, fl := range flows {
		f.prevRates = append(f.prevRates, fl.rate)
		fl.fixed = false
		for _, r := range fl.path {
			if r.scratchGen != gen {
				r.scratchGen = gen
				r.scratchIdx = int32(len(f.states))
				f.states = append(f.states, resState{res: r, cap: r.capacity})
			}
			f.states[r.scratchIdx].count++
		}
	}

	// Waterfill with a lazy min-heap over fair shares. Every working-set
	// resource starts with one entry; fixing a bottleneck's flows only ever
	// RAISES other resources' shares (max-min monotonicity: handing share s
	// to k of count flows leaves (cap-ks)/(count-k) ≥ s when s ≤ cap/count),
	// so a popped entry whose stored share no longer matches is stale — its
	// real share grew — and is re-pushed at the current value. A popped entry
	// that validates is the true minimum. Ties in fair share resolve by
	// resource name, independent of discovery order: the (share, order) key
	// reproduces a name-ordered linear scan's first-smallest tie-break.
	f.heap = f.heap[:0]
	for i := range f.states {
		st := &f.states[i]
		f.heapPush(shareEntry{st.cap / float64(st.count), st.res.order, int32(i)})
	}
	unfixed := len(flows)
	for unfixed > 0 && len(f.heap) > 0 {
		e := f.heapPop()
		st := &f.states[e.idx]
		if st.count == 0 {
			continue
		}
		if cur := st.cap / float64(st.count); cur != e.share {
			f.heapPush(shareEntry{cur, e.order, e.idx})
			continue
		}
		share := e.share
		for _, fl := range st.res.flows {
			if fl.fixed {
				continue
			}
			fl.fixed = true
			fl.rate = share
			unfixed--
			for _, r := range fl.path {
				st := &f.states[r.scratchIdx]
				st.cap -= share
				if st.cap < 0 {
					st.cap = 0
				}
				st.count--
			}
		}
	}

	for i, fl := range flows {
		// A flow whose rate is unchanged keeps its queued completion: the
		// settle charged it up to now at the same rate, so the absolute
		// completion time is identical. A completion that already fired
		// (finish found the flow not yet finishable) is not queued and
		// must be rescheduled whatever the rate.
		if fl.ev.Scheduled() && sameRate(fl.rate, f.prevRates[i]) {
			continue
		}
		f.scheduleCompletion(fl)
	}
}

// sameRate compares rates with a relative tolerance tight enough that any
// completion-time error is absorbed by the finishable slack.
func sameRate(a, b float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1e-12*a
}

// scheduleCompletion moves the flow's completion event to its new ETA. The
// reschedule takes a fresh sequence number, as a cancel-and-reschedule would.
func (f *Fabric) scheduleCompletion(fl *Flow) {
	var eta float64
	if !f.finishable(fl) {
		eta = fl.remaining / fl.rate
	}
	fl.ev.Schedule(f.sim.now + eta)
}

// finishable reports whether a flow's residual bytes are beyond the clock's
// ability to resolve: either inside the byte slack, or smaller than what a
// few representable virtual-time ticks can transfer at the flow's rate.
// Without the tick guard, accumulated float64 rounding can leave a residue
// that reschedules a completion for "now + less than one ULP", which never
// advances the clock and livelocks the simulation.
func (f *Fabric) finishable(fl *Flow) bool {
	if fl.remaining <= completionSlack {
		return true
	}
	tick := math.Nextafter(f.sim.now, math.Inf(1)) - f.sim.now
	return fl.remaining <= fl.rate*tick*4
}

type resState struct {
	res   *Resource
	cap   float64
	count int
}

func shareLess(a, b shareEntry) bool {
	return a.share < b.share || (a.share == b.share && a.order < b.order)
}

func (f *Fabric) heapPush(e shareEntry) {
	f.heap = append(f.heap, e)
	i := len(f.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !shareLess(f.heap[i], f.heap[p]) {
			break
		}
		f.heap[i], f.heap[p] = f.heap[p], f.heap[i]
		i = p
	}
}

func (f *Fabric) heapPop() shareEntry {
	top := f.heap[0]
	n := len(f.heap) - 1
	f.heap[0] = f.heap[n]
	f.heap = f.heap[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && shareLess(f.heap[l], f.heap[m]) {
			m = l
		}
		if r < n && shareLess(f.heap[r], f.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		f.heap[i], f.heap[m] = f.heap[m], f.heap[i]
		i = m
	}
	return top
}

// remove deletes fl from flows in place, keeping id order. Callers pass the
// fabric's component scratch, so nothing is copied out.
func remove(flows []*Flow, fl *Flow) []*Flow {
	if i := slices.Index(flows, fl); i >= 0 {
		return slices.Delete(flows, i, i+1)
	}
	return flows
}
