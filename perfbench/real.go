package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rdmc"
)

// realSpec is the shape of a workload over real transports: a local cluster
// in this process, groups rooted at members[0], and a closed loop with one
// object outstanding per group.
type realSpec struct {
	name       string
	nodes      int
	intraHost  bool    // shmnic data plane, TCP control mesh
	groups     [][]int // member node ids, root first
	objBytes   int
	blockBytes int
	payloads   int // distinct seed-derived payloads per group, reused round robin
	batch      int // objects per wall_s batch
	setups     int // deployments per run, each timed; setup_s is their median
	warmup     time.Duration
	deadline   time.Duration // an object not delivered by then has failed
	seed       int64
	faults     faults
}

// faults deliberately break delivery of one object of group 0 at its rank-1
// member in a run's first deployment, so the tests can prove the gate counts
// it. -1 disables a fault.
type faults struct {
	corrupt  int // flip a byte of this object's receive buffer before the check
	withhold int // never report this object's completion
}

var noFaults = faults{corrupt: -1, withhold: -1}

// bulkTCP is the large-object regime: one 4-member group over loopback
// tcpnic, 16 MiB objects in 1 MiB blocks.
func bulkTCP(seed int64) *realSpec {
	return &realSpec{
		name: "bulk-tcp", nodes: 4, groups: [][]int{{0, 1, 2, 3}},
		objBytes: 16 << 20, blockBytes: 1 << 20, payloads: 3, batch: 8, setups: 6,
		warmup: 300 * time.Millisecond, deadline: 20 * time.Second, seed: seed, faults: noFaults,
	}
}

// smallShm is the control-bound regime: 8 overlapping 3-member groups over
// shmnic, 64 KiB objects in 16 KiB blocks. Rosters and roots come from the
// seed, balanced so every seed loads the nodes alike: each node roots two
// groups and sits out two.
func smallShm(seed int64) *realSpec {
	rng := rand.New(rand.NewSource(seed))
	var groups [][]int
	for {
		groups = groups[:0]
		var left [4]int
		for root := 0; root < 4; root++ {
			others := []int{(root + 1) % 4, (root + 2) % 4, (root + 3) % 4}
			for _, out := range rng.Perm(3)[:2] {
				left[others[out]]++
				members := []int{root}
				for i, m := range others {
					if i != out {
						members = append(members, m)
					}
				}
				rng.Shuffle(2, func(i, j int) { members[1+i], members[1+j] = members[1+j], members[1+i] })
				groups = append(groups, members)
			}
		}
		if left == [4]int{2, 2, 2, 2} {
			break
		}
	}
	return &realSpec{
		name: "small-shm", nodes: 4, intraHost: true, groups: groups,
		objBytes: 64 << 10, blockBytes: 16 << 10, payloads: 4, batch: 1024, setups: 10,
		warmup: 200 * time.Millisecond, deadline: 10 * time.Second, seed: seed, faults: noFaults,
	}
}

// payloads is one group's seed-derived objects, reused round robin, with
// the CRC-32C of each past its 8-byte sequence stamp.
type payloads struct {
	bufs [][]byte
	crcs []uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// makePayloads derives every group's payloads from the seed.
func makePayloads(spec *realSpec) []payloads {
	out := make([]payloads, len(spec.groups))
	for g := range spec.groups {
		rng := rand.New(rand.NewSource(spec.seed*1009 + int64(g)))
		for p := 0; p < spec.payloads; p++ {
			buf := make([]byte, spec.objBytes)
			_, _ = rng.Read(buf) // math/rand's Read never fails
			out[g].bufs = append(out[g].bufs, buf)
			out[g].crcs = append(out[g].crcs, crc32.Checksum(buf[8:], castagnoli))
		}
	}
	return out
}

// deployment is one started cluster with its groups created.
type deployment struct {
	spec   *realSpec
	faults faults
	nodes  []*rdmc.Node
	groups []*groupRun
	events chan event
	spans  *spanLog

	stop      chan struct{} // closed after the nodes, to end the verifiers
	verifiers sync.WaitGroup
}

// event tells the generator that a group's object finished (rec) or that
// the group failed (rec nil).
type event struct {
	g   *groupRun
	rec *objRec
}

// groupRun is one group's sender-side state and delivery record.
type groupRun struct {
	d       *deployment
	idx     int
	payload payloads
	root    *rdmc.Group
	full    uint64 // bit per member rank

	mu     sync.Mutex
	objs   []*objRec // indexed by sequence number
	strays int       // completions for objects never sent
	err    error

	cur *objRec // generator only: the object in flight
}

// objRec is one object's delivery record.
type objRec struct {
	timed  bool
	sentAt time.Time
	span   int

	// Guarded by groupRun.mu.
	got         uint64 // members that reported completion
	first, last time.Time
	doneAt      time.Time
	bad         bool // wrong bytes, order or a duplicate
	expired     bool // missed its deadline
	done        bool
}

func (r *objRec) ok() bool { return r.done && !r.bad && !r.expired }

// receiver is one non-root member's endpoint. Its completions are checked
// on the receiver's own goroutine, so the check never holds up the engine's
// completion dispatch, which may still be relaying blocks to other members.
type receiver struct {
	g      *groupRun
	rank   int
	buf    []byte
	checks chan check // one object in flight per group, so one waiting check

	mu   sync.Mutex
	inAt time.Time // when the latest Incoming ran
}

// check is one completion waiting for verification.
type check struct {
	seq      int
	data     []byte
	size     int
	inAt, at time.Time
}

func (r *receiver) incoming(size int) []byte {
	r.mu.Lock()
	r.inAt = time.Now()
	r.mu.Unlock()
	if size > len(r.buf) {
		return make([]byte, size)
	}
	return r.buf[:size]
}

func (r *receiver) completion(seq int, data []byte, size int) {
	at := time.Now()
	if f := r.g.d.faults; r.g.idx == 0 && r.rank == 1 {
		if seq == f.withhold {
			return
		}
		if seq == f.corrupt && len(data) > 0 {
			data[len(data)/2] ^= 0xff
		}
	}
	r.mu.Lock()
	c := check{seq: seq, data: data, size: size, inAt: r.inAt, at: at}
	r.mu.Unlock()
	select {
	case r.checks <- c:
	case <-r.g.d.stop:
	}
}

// verify checks each completion in turn: in order, exactly once, intact.
func (r *receiver) verify() {
	defer r.g.d.verifiers.Done()
	next := 0 // next sequence number this member must deliver
	for {
		select {
		case c := <-r.checks:
			ok := c.seq == next && r.g.intact(c.seq, c.data, c.size)
			if c.seq >= next {
				next = c.seq + 1
			}
			r.g.memberDone(c.seq, r.rank, ok, c.inAt, c.at)
		case <-r.g.d.stop:
			return
		}
	}
}

// intact checks a delivered object against what the root sent: its size,
// the sequence stamp in its first 8 bytes, and a CRC-32C of every other
// byte against the seed-derived payload's. The CRC reads the object once,
// half the memory traffic of a byte-by-byte compare, and catches every
// single-byte change.
func (g *groupRun) intact(seq int, data []byte, size int) bool {
	p := seq % len(g.payload.bufs)
	if size != len(g.payload.bufs[p]) || len(data) < size {
		return false
	}
	return binary.LittleEndian.Uint64(data) == uint64(seq) && crc32.Checksum(data[8:size], castagnoli) == g.payload.crcs[p]
}

// memberDone records one member's completion; the last one finishes the
// object and wakes the generator.
func (g *groupRun) memberDone(seq, rank int, ok bool, inAt, at time.Time) {
	checked := time.Now()
	g.mu.Lock()
	if seq < 0 || seq >= len(g.objs) {
		g.strays++
		g.mu.Unlock()
		return
	}
	rec := g.objs[seq]
	bit := uint64(1) << rank
	if rec.got&bit != 0 || !ok {
		rec.bad = true
	}
	rec.got |= bit
	if rank > 0 {
		if rec.first.IsZero() || at.Before(rec.first) {
			rec.first = at
		}
		if at.After(rec.last) {
			rec.last = at
		}
	}
	finished := rec.got == g.full && !rec.done && !rec.expired
	if finished {
		rec.done = true
		rec.doneAt = checked
	}
	g.mu.Unlock()
	if sp := g.d.spans; sp != nil && rank > 0 {
		obj := objID(g.idx, seq)
		sp.add("announce", rec.sentAt, inAt, rec.span, obj)
		sp.add("receive", inAt, at, rec.span, obj)
		sp.add("verify", at, checked, rec.span, obj)
	}
	if finished {
		g.d.spans.close(rec.span, checked)
		g.d.events <- event{g: g, rec: rec}
	}
}

func (g *groupRun) failure(err error) {
	g.mu.Lock()
	first := g.err == nil
	if first {
		g.err = err
	}
	g.mu.Unlock()
	if first {
		g.d.events <- event{g: g}
	}
}

func objID(group, seq int) int64 { return int64(group)<<32 | int64(seq) }

// deploy starts the cluster, creates every group on every member and
// delivers one object per group; the returned duration is the setup time.
func deploy(spec *realSpec, payloads []payloads, f faults, ob *rdmc.Observer, spans *spanLog) (*deployment, time.Duration, error) {
	t0 := time.Now()
	root := spans.open("deploy", t0, -1, -1)
	var opts []rdmc.ClusterOption
	if spec.intraHost {
		opts = append(opts, rdmc.WithIntraHost())
	}
	if ob != nil {
		opts = append(opts, rdmc.WithObserver(ob))
	}
	nodes, err := rdmc.NewLocalCluster(spec.nodes, opts...)
	spans.add("cluster_start", t0, time.Now(), root, -1)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{
		spec:   spec,
		faults: f,
		nodes:  nodes,
		spans:  spans,
		// A group has at most one object in flight, so it queues at most
		// that object's completion, one stale completion of an expired
		// object and one failure notice (teardown fails every group).
		events: make(chan event, 3*len(spec.groups)),
		stop:   make(chan struct{}),
	}
	gcfg := rdmc.GroupConfig{BlockSize: spec.blockBytes}
	for gi, members := range spec.groups {
		g := &groupRun{d: d, idx: gi, payload: payloads[gi], full: 1<<len(members) - 1}
		d.groups = append(d.groups, g)
		for rank, m := range members {
			cbs := rdmc.Callbacks{Failure: g.failure}
			if rank == 0 {
				cbs.Completion = func(seq int, _ []byte, _ int) { g.memberDone(seq, 0, true, time.Time{}, time.Now()) }
			} else {
				r := &receiver{g: g, rank: rank, buf: make([]byte, spec.objBytes), checks: make(chan check, 1)}
				cbs.Incoming, cbs.Completion = r.incoming, r.completion
				d.verifiers.Add(1)
				go r.verify()
			}
			t := time.Now()
			grp, err := nodes[m].CreateGroup(gi+1, members, gcfg, cbs)
			spans.add("create_group", t, time.Now(), root, -1)
			if err != nil {
				d.close()
				return nil, 0, fmt.Errorf("create group %d on node %d: %w", gi+1, m, err)
			}
			if rank == 0 {
				g.root = grp
			}
		}
	}
	d.drive(time.Now(), false)
	for _, g := range d.groups {
		g.mu.Lock()
		if len(g.objs) > 0 && g.objs[0].done {
			spans.add("first_object", g.objs[0].sentAt, g.objs[0].doneAt, root, objID(g.idx, 0))
		}
		g.mu.Unlock()
	}
	setup := time.Since(t0)
	spans.close(root, time.Now())
	return d, setup, nil
}

// sendNext sends the group's next object; false means the group is out of
// service.
func (d *deployment) sendNext(g *groupRun, timed bool) bool {
	g.mu.Lock()
	if g.err != nil {
		g.mu.Unlock()
		return false
	}
	seq := len(g.objs)
	g.mu.Unlock()
	buf := g.payload.bufs[seq%len(g.payload.bufs)]
	binary.LittleEndian.PutUint64(buf, uint64(seq))
	rec := &objRec{timed: timed, sentAt: time.Now()}
	rec.span = d.spans.open("object", rec.sentAt, -1, objID(g.idx, seq))
	g.mu.Lock()
	g.objs = append(g.objs, rec)
	g.mu.Unlock()
	err := g.root.Send(buf)
	d.spans.add("send_call", rec.sentAt, time.Now(), rec.span, objID(g.idx, seq))
	if err != nil {
		g.mu.Lock()
		rec.bad = true
		if g.err == nil {
			g.err = err
		}
		g.mu.Unlock()
		return false
	}
	g.cur = rec
	return true
}

// drive runs the closed loop: each group resends as soon as its object
// finishes, until the until time; then it waits for the objects in flight.
func (d *deployment) drive(until time.Time, timed bool) {
	outstanding := 0
	for _, g := range d.groups {
		if d.sendNext(g, timed) {
			outstanding++
		}
	}
	timer := time.NewTimer(d.spec.deadline)
	defer timer.Stop()
	finish := func(g *groupRun, expired bool) {
		if expired {
			g.mu.Lock()
			g.cur.expired = true
			g.mu.Unlock()
			d.spans.close(g.cur.span, time.Now())
		}
		g.cur = nil
		outstanding--
		if time.Now().Before(until) && d.sendNext(g, timed) {
			outstanding++
		}
	}
	for outstanding > 0 {
		next := time.Time{}
		for _, g := range d.groups {
			if g.cur != nil && (next.IsZero() || g.cur.sentAt.Before(next)) {
				next = g.cur.sentAt
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(next.Add(d.spec.deadline)))
		select {
		case ev := <-d.events:
			if g := ev.g; g.cur != nil && (ev.rec == nil || ev.rec == g.cur) {
				finish(g, ev.rec == nil)
			}
		case now := <-timer.C:
			for _, g := range d.groups {
				if g.cur != nil && now.Sub(g.cur.sentAt) >= d.spec.deadline {
					finish(g, true)
				}
			}
		}
	}
}

func (d *deployment) close() {
	for _, n := range d.nodes {
		_ = n.Close() // teardown errors after the measurement change nothing
	}
	close(d.stop)
	d.verifiers.Wait()
}

// account adds the deployment's objects to the tally: every object counts
// for correctness, timed ones for the timings.
func (d *deployment) account(t *tally, timedStart time.Time) {
	var done []float64
	elapsed := 0.0
	for _, g := range d.groups {
		g.mu.Lock()
		t.attempted += g.strays
		t.failed += g.strays
		for _, rec := range g.objs {
			t.attempted++
			if !rec.ok() {
				t.failed++
				continue
			}
			if !rec.timed {
				continue
			}
			t.delivered++
			t.bytes += float64(d.spec.objBytes)
			t.latencies = append(t.latencies, rec.last.Sub(rec.sentAt).Seconds())
			off := rec.doneAt.Sub(timedStart).Seconds()
			done = append(done, off)
			elapsed = max(elapsed, off)
		}
		g.mu.Unlock()
	}
	t.elapsed += elapsed
	t.batches = append(t.batches, batchDurations(done, d.spec.batch)...)
	t.batchDesc = fmt.Sprintf("%d objects", d.spec.batch)
}

// measure runs deployments in turn, each set up, warmed up and timed for
// length/deployments, until that many have been kept (see keepSlice), and
// tallies them: pooling several deployments evens out per-connection state
// such as socket buffer autotuning. Faults apply to the first deployment
// only. It returns the last deployment for the traced run's per-layer
// metrics.
func measure(spec *realSpec, payloads []payloads, deployments int, length time.Duration, ob *rdmc.Observer, spans *spanLog) (*tally, *deployment, error) {
	t := &tally{}
	var d *deployment
	runStart := time.Now()
	for kept, f := 0, spec.faults; kept < deployments; f = noFaults {
		meter := readSteal()
		s := &tally{}
		var setup time.Duration
		var err error
		if d, setup, err = deploy(spec, payloads, f, ob, spans); err != nil {
			return nil, nil, err
		}
		s.setups = append(s.setups, setup.Seconds())
		d.drive(time.Now().Add(spec.warmup), false)
		u0 := readUsage()
		start := time.Now()
		d.drive(start.Add(length/time.Duration(deployments)), true)
		s.used = readUsage().sub(u0)
		d.close()
		d.account(s, start)
		keep := keepSlice(meter, runStart, length)
		t.add(s, keep)
		if keep {
			kept++
		}
	}
	return t, d, nil
}

// runReal runs one real-transport workload.
func runReal(spec *realSpec, cfg runConfig) (*report, error) {
	payloads := makePayloads(spec)
	r := newReport()
	r.note("groups %v, %d-byte objects in %d-byte blocks", spec.groups, spec.objBytes, spec.blockBytes)
	if !cfg.traced {
		t, _, err := measure(spec, payloads, spec.setups, cfg.seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		t.endToEnd(r)
		return r, nil
	}

	// Traced run: an untraced half, then a traced half whose difference is
	// the tracing overhead.
	base, _, err := measure(spec, payloads, 1, cfg.seconds/2, nil, nil)
	if err != nil {
		return nil, err
	}
	ob := rdmc.NewObserver(0)
	spans := newSpanLog()
	sched := installScheduleMetrics()
	traced, d, err := measure(spec, payloads, 1, cfg.seconds/2, ob, spans)
	removeScheduleMetrics()
	if err != nil {
		return nil, err
	}
	r.Attempted = base.attempted + traced.attempted
	r.Failed = base.failed + traced.failed

	var objects int
	for _, g := range d.groups {
		objects += len(g.objs)
	}
	snap, err := observerSnapshot(ob)
	if err != nil {
		return nil, err
	}
	layers := layerInputs{
		objects:      objects,
		recvBytes:    float64(objects) * float64(spec.objBytes) * float64(len(spec.groups[0])-1),
		snap:         snap,
		sched:        sched,
		spans:        spans.stats(),
		skews:        skews(d),
		groupSize:    len(spec.groups[0]),
		blocksPerObj: spec.objBytes / spec.blockBytes,
	}
	layers.overhead(r, base, traced)
	if err := layers.fill(r, spec.blockBytes); err != nil {
		return nil, err
	}
	return r, writeSpans(r, spans, cfg.outDir, spec.name)
}

// skews lists, per delivered object, the gap between its first and last
// receiver's completion.
func skews(d *deployment) []float64 {
	var out []float64
	for _, g := range d.groups {
		g.mu.Lock()
		for _, rec := range g.objs {
			if rec.ok() && !rec.first.IsZero() {
				out = append(out, rec.last.Sub(rec.first).Seconds())
			}
		}
		g.mu.Unlock()
	}
	sort.Float64s(out)
	return out
}
