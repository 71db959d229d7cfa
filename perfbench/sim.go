package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rdmc"
)

// pendingSampleEvery is how many Step calls pass between two samples of the
// simulator's pending-event count in the traced run (Pending scans the heap).
const pendingSampleEvery = 4096

// simSpec is the contended multi-tenant workload on a simulated fabric.
type simSpec struct {
	nodes, replicas, groupsPerTenant int
	heavyBytes, lightBytes           int
	blockBytes, window               int
	throttleBytes, maxInFlight       int
	outstanding, writes              int     // closed loop; writes per simulated run
	lightShare                       float64 // share of writes from the light tenant
	withhold                         int     // timed write of the first run whose completion rank 1 withholds; -1 none
}

// simTenants is 512 Fractus nodes behind one registry with QoS on: a heavy
// tenant (2 MiB objects, weight 1) and a light one (64 KiB, weight 3) each
// own groups of node 0 plus 4 seed-drawn replicas, and 96 writes stay
// outstanding.
func simTenants() *simSpec {
	return &simSpec{
		nodes: 512, replicas: 4, groupsPerTenant: 256,
		heavyBytes: 2 << 20, lightBytes: 64 << 10,
		blockBytes: 64 << 10, window: 4,
		throttleBytes: 512 << 10, maxInFlight: 64,
		outstanding: 96, writes: 1000, lightShare: 0.75, withhold: -1,
	}
}

const (
	heavy = iota
	light
)

// simRun is one simulated deployment: setup, first writes, timed writes.
type simRun struct {
	spec    *simSpec
	c       *rdmc.SimCluster
	tenants [2]*rdmc.Tenant
	groups  [2][]*simGroup
	writes  []*simWrite
	plan    []*simGroup // timed writes in issue order
	issued  int
	strays  int
	failed  int // group failures reported
	spans   *spanLog
	first   bool // the run the withhold fault applies to
}

type simGroup struct {
	run    *simRun
	idx    int
	tenant int
	size   int
	root   *rdmc.Group
	full   uint64
	sends  []*simWrite // by sequence number
	next   []int       // per member rank: next sequence number it must deliver
	inAt   []time.Time // per member rank: latest Incoming
}

type simWrite struct {
	g                      *simGroup
	timed                  bool
	submitV, startV, doneV float64
	submitH, sendH         time.Time
	first, last            time.Time // receivers' completions, host time
	span                   int
	timedIdx               int // position among the run's timed writes, -1 for a first write
	got                    uint64
	started, done, bad     bool
	queued, refused        bool
}

func (w *simWrite) ok() bool { return w.done && !w.bad && !w.refused }

func (run *simRun) now() float64 { return run.c.Now().Seconds() }

// newSimRun builds the cluster, registry, tenants and groups, delivers one
// write per group and plans the timed writes; its duration is the run's
// setup time.
func newSimRun(spec *simSpec, seed int64, ob *rdmc.Observer, spans *spanLog) (*simRun, error) {
	t0 := time.Now()
	root := spans.open("deploy", t0, -1, -1)
	c, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: spec.nodes, Seed: seed, Observer: ob})
	if err != nil {
		return nil, err
	}
	reg := rdmc.NewRegistry(rdmc.RegistryConfig{Seed: seed, ThrottleBytes: spec.throttleBytes})
	for i := 0; i < spec.nodes; i++ {
		if err := c.Node(i).JoinRegistry(reg); err != nil {
			return nil, err
		}
	}
	spans.add("cluster_start", t0, time.Now(), root, -1)
	run := &simRun{spec: spec, c: c, spans: spans}
	for t, name := range []string{"heavy", "light"} {
		weight := 1 + 2*t
		tn, err := reg.AddTenant(name, rdmc.TenantConfig{Weight: weight, MaxInFlight: spec.maxInFlight, MaxQueuedBytes: 1 << 40})
		if err != nil {
			return nil, err
		}
		run.tenants[t] = tn
	}
	rng := rand.New(rand.NewSource(seed))
	gcfg := rdmc.GroupConfig{BlockSize: spec.blockBytes, SendWindow: spec.window}
	for t, tn := range run.tenants {
		size := spec.heavyBytes
		if t == light {
			size = spec.lightBytes
		}
		for j := 0; j < spec.groupsPerTenant; j++ {
			members := []int{0}
			for _, m := range rng.Perm(spec.nodes - 1)[:spec.replicas] {
				members = append(members, m+1)
			}
			gs, err := tn.RegisterGroup(fmt.Sprintf("g%d", j), members)
			if err != nil {
				return nil, err
			}
			g := &simGroup{run: run, idx: len(run.groups[heavy]) + len(run.groups[light]), tenant: t, size: size,
				full: 1<<len(members) - 1, next: make([]int, len(members)), inAt: make([]time.Time, len(members))}
			run.groups[t] = append(run.groups[t], g)
			for rank, m := range members {
				cbs := rdmc.Callbacks{
					Incoming:   func(int) []byte { g.inAt[rank] = time.Now(); return nil },
					Completion: func(seq int, _ []byte, size int) { g.completion(rank, seq, size) },
					Failure:    func(error) { run.failed++ },
				}
				t := time.Now()
				grp, err := tn.CreateGroup(c.Node(m), gs, gcfg, cbs)
				spans.add("create_group", t, time.Now(), root, -1)
				if err != nil {
					return nil, fmt.Errorf("create group %v: %w", members, err)
				}
				if rank == 0 {
					g.root = grp
				}
			}
		}
	}
	for _, gs := range run.groups {
		for _, g := range gs {
			run.submit(g, -1)
		}
	}
	run.drain(nil)
	for _, w := range run.writes {
		if w.done {
			spans.add("first_object", w.submitH, w.last, root, int64(w.g.idx)<<32)
		}
	}
	spans.close(root, time.Now())
	for i := 0; i < spec.writes; i++ {
		t := heavy
		if rng.Float64() < spec.lightShare {
			t = light
		}
		run.plan = append(run.plan, run.groups[t][rng.Intn(spec.groupsPerTenant)])
	}
	return run, nil
}

// submit hands one write of g to its tenant's admission control; idx is its
// position among the timed writes, -1 for a first write.
func (run *simRun) submit(g *simGroup, idx int) {
	timed := idx >= 0
	w := &simWrite{g: g, timed: timed, timedIdx: idx, submitV: run.now(), submitH: time.Now()}
	w.span = run.spans.open("object", w.submitH, -1, int64(g.idx)<<32|int64(len(run.writes)))
	run.writes = append(run.writes, w)
	err := run.tenants[g.tenant].Submit(int64(g.size), func() {
		w.started, w.startV, w.sendH = true, run.now(), time.Now()
		g.sends = append(g.sends, w)
		err := g.root.SendSized(g.size)
		run.spans.add("send_call", w.sendH, time.Now(), w.span, int64(g.idx)<<32|int64(len(g.sends)-1))
		if err != nil {
			w.bad = true
			run.finish(w)
		}
	})
	if err != nil {
		w.refused = true
		run.spans.close(w.span, time.Now())
		if timed {
			run.issueNext()
		}
		return
	}
	w.queued = !w.started
}

// finish releases the write's admission slot and, in the timed phase,
// issues the next write.
func (run *simRun) finish(w *simWrite) {
	run.spans.close(w.span, time.Now())
	run.tenants[w.g.tenant].Done()
	if w.timed {
		run.issueNext()
	}
}

func (run *simRun) issueNext() {
	if run.issued < len(run.plan) {
		g := run.plan[run.issued]
		run.issued++
		run.submit(g, run.issued-1)
	}
}

// completion checks one member's delivery: in order, exactly once, of the
// size sent; the last member finishes the write.
func (g *simGroup) completion(rank, seq, size int) {
	run := g.run
	at := time.Now()
	inOrder := seq == g.next[rank]
	if seq >= g.next[rank] {
		g.next[rank] = seq + 1
	}
	if seq < 0 || seq >= len(g.sends) {
		run.strays++
		return
	}
	w := g.sends[seq]
	if rank == 1 && run.first && w.timedIdx == run.spec.withhold && w.timed {
		return
	}
	bit := uint64(1) << rank
	if !inOrder || size != g.size || w.got&bit != 0 {
		w.bad = true
	}
	w.got |= bit
	if rank > 0 {
		if w.first.IsZero() {
			w.first = at
		}
		w.last = at
		obj := int64(g.idx)<<32 | int64(seq)
		run.spans.add("announce", w.sendH, g.inAt[rank], w.span, obj)
		run.spans.add("receive", g.inAt[rank], at, w.span, obj)
	}
	if w.got == g.full && !w.done {
		w.done, w.doneV = true, run.now()
		run.finish(w)
	}
}

// drain steps the simulator until no event is left and returns the step
// count; with layers set it samples the pending-event count.
func (run *simRun) drain(layers *simLayers) int {
	sim := run.c.Grid().Sim()
	steps := 0
	for sim.Step() {
		steps++
		if layers != nil && steps%pendingSampleEvery == 0 {
			layers.pendingPeak = math.Max(layers.pendingPeak, float64(sim.Pending()))
		}
	}
	return steps
}

// timed runs the closed loop over the planned writes and adds the run to
// the tally and (when traced) the layer measurements. It returns a digest of
// the run's virtual-time results: equal seeds must give equal digests, so a
// simulator-only change can show it left the modelled system untouched.
func (run *simRun) timed(t *tally, layers *simLayers) string {
	u0 := readUsage()
	h0 := time.Now()
	v0 := run.now()
	for i := 0; i < run.spec.outstanding; i++ {
		run.issueNext()
	}
	steps := run.drain(layers)
	hostS := time.Since(h0).Seconds()
	t.used.add(readUsage().sub(u0))

	digest := sha256.New()
	var bytes, lastV float64
	var lightLat []float64
	// A stray completion or a group failure is one more failed delivery.
	t.attempted += run.strays + run.failed
	t.failed += run.strays + run.failed
	for _, w := range run.writes {
		t.attempted++
		if !w.ok() {
			t.failed++
		}
		var rec [5]uint64
		rec[0] = uint64(w.g.idx)
		rec[1], rec[2], rec[3] = math.Float64bits(w.submitV), math.Float64bits(w.startV), math.Float64bits(w.doneV)
		if w.ok() {
			rec[4] = 1
		}
		_ = binary.Write(digest, binary.LittleEndian, rec) // hash writes cannot fail
		if layers != nil && w.ok() {
			layers.skews = append(layers.skews, w.last.Sub(w.first).Seconds())
		}
		if layers != nil && w.timed {
			layers.submitted++
			if w.queued {
				layers.queued++
			}
			if w.refused {
				layers.refused++
			}
		}
		if !w.timed || !w.ok() {
			continue
		}
		t.delivered++
		bytes += float64(w.g.size)
		lastV = math.Max(lastV, w.doneV)
		if w.g.tenant == light {
			lightLat = append(lightLat, w.doneV-w.submitV)
		}
		if layers != nil {
			layers.admitWait = append(layers.admitWait, w.startV-w.submitV)
		}
	}
	// The latency metrics are the light tenant's, the one QoS protects: a
	// mix of both tenants puts the median in the empty gap between a 64 KiB
	// and a 2 MiB write, where it jumps with the seed.
	t.latencies = append(t.latencies, lightLat...)
	t.bytes += bytes
	t.elapsed += hostS
	t.batches = append(t.batches, hostS)
	if layers != nil {
		layers.runs++
		layers.events += float64(steps)
		layers.hostNs += hostS * 1e9
		layers.virtualS += lastV - v0
		layers.hostS += hostS
		layers.virtualGbps = append(layers.virtualGbps, ratio(bytes*8/1e9, lastV-v0))
		layers.lightP99 = append(layers.lightP99, quantile(lightLat, 0.99))
	}
	return hex.EncodeToString(digest.Sum(nil))[:16]
}

// simMeasure runs simulated deployments, set-up and timed phase each, until
// the ones kept (see keepSlice) add up to length, at least one; run i of the
// process uses seed*1000+i, and its digest is appended to digests.
func simMeasure(spec *simSpec, seed int64, length time.Duration, t *tally, digests *[]string, ob *rdmc.Observer, spans *spanLog, layers *simLayers) (writes int, err error) {
	runStart := time.Now()
	for kept := time.Duration(0); kept == 0 || kept < length; {
		meter := readSteal()
		start := time.Now()
		run, err := newSimRun(spec, seed*1000+int64(len(*digests)), ob, spans)
		if err != nil {
			return writes, err
		}
		run.first = len(*digests) == 0
		s := &tally{setups: []float64{time.Since(start).Seconds()}, batchDesc: fmt.Sprintf("%d writes (one simulated run)", spec.writes)}
		*digests = append(*digests, run.timed(s, layers))
		writes += len(run.writes)
		keep := keepSlice(meter, runStart, length)
		t.add(s, keep)
		if keep {
			kept += time.Since(start)
		}
	}
	return writes, nil
}

// runSim runs the simulated workload.
func runSim(spec *simSpec, cfg runConfig) (*report, error) {
	r := newReport()
	r.note("%d nodes, %d groups per tenant of 1+%d members, %d writes per run, %d outstanding",
		spec.nodes, spec.groupsPerTenant, spec.replicas, spec.writes, spec.outstanding)
	var digests []string
	t := &tally{}
	if !cfg.traced {
		if _, err := simMeasure(spec, cfg.seed, cfg.seconds, t, &digests, nil, nil, nil); err != nil {
			return nil, err
		}
		t.endToEnd(r)
		r.note("virtual-time digests by run: %v", digests)
		return r, nil
	}

	if _, err := simMeasure(spec, cfg.seed, cfg.seconds/2, t, &digests, nil, nil, nil); err != nil {
		return nil, err
	}
	// The traced half replays the same sub-seeds: its digests must match,
	// since observing the simulation may not change it.
	ob := rdmc.NewObserver(0)
	spans := newSpanLog()
	layers := &simLayers{}
	traced := &tally{}
	var tracedDigests []string
	sched := installScheduleMetrics()
	writes, err := simMeasure(spec, cfg.seed, cfg.seconds/2, traced, &tracedDigests, ob, spans, layers)
	removeScheduleMetrics()
	if err != nil {
		return nil, err
	}
	r.Attempted = t.attempted + traced.attempted
	r.Failed = t.failed + traced.failed
	r.note("virtual-time digests by run: untraced %v, traced %v", digests, tracedDigests)
	for i := range min(len(digests), len(tracedDigests)) {
		// A run the observer changed counts as one more failed delivery.
		if digests[i] != tracedDigests[i] {
			r.Attempted++
			r.Failed++
		}
	}
	snap, err := observerSnapshot(ob)
	if err != nil {
		return nil, err
	}
	in := layerInputs{
		objects:      writes,
		snap:         snap,
		sched:        sched,
		spans:        spans.stats(),
		skews:        layers.skews,
		groupSize:    1 + spec.replicas,
		blocksPerObj: spec.heavyBytes / spec.blockBytes,
		sim:          layers,
	}
	in.overhead(r, t, traced)
	if err := in.fill(r, spec.blockBytes); err != nil {
		return nil, err
	}
	return r, writeSpans(r, spans, cfg.outDir, "sim-tenants")
}
