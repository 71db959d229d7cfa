package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"rdmc"
	"rdmc/internal/obs"
	"rdmc/internal/schedule"
)

// obsSnapshot is the part of an rdmc.Observer metrics snapshot the
// per-layer metrics read.
type obsSnapshot struct {
	Counters   map[string]uint64 `json:"counters"`
	Histograms map[string]struct {
		Count uint64 `json:"count"`
		Sum   int64  `json:"sum"`
	} `json:"histograms"`
}

func observerSnapshot(ob *rdmc.Observer) (obsSnapshot, error) {
	var s obsSnapshot
	raw, err := ob.MetricsJSON()
	if err != nil {
		return s, fmt.Errorf("observer snapshot: %w", err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("observer snapshot: %w", err)
	}
	return s, nil
}

func (s obsSnapshot) counter(name string) float64 { return float64(s.Counters[name]) }

// counterSum adds every counter whose name starts with prefix.
func (s obsSnapshot) counterSum(prefix string) float64 {
	var sum float64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			sum += float64(v)
		}
	}
	return sum
}

func (s obsSnapshot) histMean(name string) (float64, uint64) {
	h := s.Histograms[name]
	return ratio(float64(h.Sum), float64(h.Count)), h.Count
}

// installScheduleMetrics hooks the planner's process-wide counters into a
// fresh registry for the traced phase.
func installScheduleMetrics() *obs.Registry {
	r := obs.NewRegistry()
	schedule.SetMetrics(&schedule.Metrics{
		FastPath:   r.Counter("schedule.nodeplan_fast"),
		CacheHit:   r.Counter("schedule.plan_cache_hits"),
		CacheMiss:  r.Counter("schedule.plan_cache_misses"),
		CacheSize:  r.Gauge("schedule.plan_cache_size"),
		CacheEvict: r.Counter("schedule.plan_cache_evictions"),
	})
	return r
}

func removeScheduleMetrics() { schedule.SetMetrics(nil) }

// layerInputs is everything a traced run hands to the per-layer metrics.
type layerInputs struct {
	objects      int     // objects sent on the traced deployment
	recvBytes    float64 // object bytes its receivers took in
	snap         obsSnapshot
	sched        *obs.Registry
	spans        map[string]spanStat
	skews        []float64 // seconds
	groupSize    int
	blocksPerObj int
	sim          *simLayers // nil on the real-transport workloads
}

// simLayers carries the simulator and service-layer measurements.
type simLayers struct {
	events, hostNs, pendingPeak, virtualS, hostS float64
	runs                                         int
	skews                                        []float64 // seconds, first to last receiver
	admitWait                                    []float64 // virtual seconds per timed write
	submitted, queued, refused                   int
	virtualGbps, lightP99                        []float64 // per run
}

// overhead reports what tracing cost: the traced half's end-to-end numbers
// against the untraced half's.
func (in *layerInputs) overhead(r *report, base, traced *tally) {
	bg, tg := ratio(base.bytes, base.elapsed), ratio(traced.bytes, traced.elapsed)
	r.set("trace.overhead_goodput_frac", "ratio", ratio(bg-tg, bg), "untraced %.4g vs traced %.4g MB/s", bg/1e6, tg/1e6)
	bp, tp := median(base.latencies), median(traced.latencies)
	r.set("trace.overhead_p50_frac", "ratio", ratio(tp-bp, bp), "untraced %.4g vs traced %.4g ms p50", bp*1e3, tp*1e3)
}

// fill reports every per-layer metric; layers the workload never touches
// read 0. The ladder and the planner probe run here, after the workload.
func (in *layerInputs) fill(r *report, block int) error {
	objs := float64(in.objects)
	per := func(name, unit string, v float64, what string) {
		r.set(name, unit, ratio(v, objs), "%.0f %s over %d objects", v, what, in.objects)
	}
	sp := func(name string) spanStat { return in.spans[name] }
	r.set("rdmc.cluster_start_ms", "ms", sp("cluster_start").median*1e3, "%d spans", sp("cluster_start").count)
	r.set("rdmc.create_group_us", "us", sp("create_group").median*1e6, "median of %d spans", sp("create_group").count)
	r.set("rdmc.first_object_ms", "ms", sp("first_object").median*1e3, "median of %d spans", sp("first_object").count)
	r.set("rdmc.send_call_us", "us", sp("send_call").median*1e6, "median of %d spans", sp("send_call").count)
	r.set("rdmc.announce_us", "us", sp("announce").median*1e6, "median of %d spans", sp("announce").count)
	r.set("rdmc.receive_ms", "ms", sp("receive").median*1e3, "median of %d spans", sp("receive").count)
	r.set("rdmc.skew_us", "us", median(in.skews)*1e6, "median of %d objects", len(in.skews))
	r.set("bench.verify_us", "us", sp("verify").selfMean*1e6, "mean of %d spans", sp("verify").count)
	names := make([]string, 0, len(in.spans))
	for name := range in.spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := in.spans[name]
		r.note("span %-13s n=%-7d median %10.1f us  mean self %10.1f us", name, s.count, s.median*1e6, s.selfMean*1e6)
	}

	s := in.snap
	per("core.ctrl_tx_per_obj", "count", s.counter("core.ctrl_tx"), "control messages")
	per("core.ready_credits_per_obj", "count", s.counter("core.ready_credits"), "ready credits")
	per("core.blocks_sent_per_obj", "count", s.counter("core.blocks_sent"), "block sends")
	m, n := s.histMean("core.batch_run")
	r.set("core.batch_run_mean", "count", m, "%d dispatch runs", n)
	hits, misses := s.counter("core.plan_cache_hits"), s.counter("core.plan_cache_misses")
	r.set("core.plan_cache_hit_ratio", "ratio", ratio(hits, hits+misses), "%.0f lookups", hits+misses)
	per("mesh.tx_frames_per_obj", "count", s.counterSum("mesh.tx."), "frames")
	per("mesh.tx_ready_block_per_obj", "count", s.counter("mesh.tx.ready_block"), "ready_block frames")
	per("nicbase.posts_per_obj", "count", s.counter("nic.posts"), "posts")
	per("nicbase.completions_per_obj", "count", s.counter("nic.completions"), "completions")
	m, n = s.histMean("nic.cq_batch")
	r.set("nicbase.cq_batch_mean", "count", m, "%d completion batches", n)
	direct, staged := s.counter("tcpnic.direct_frames"), s.counter("tcpnic.staged_frames")
	r.set("tcpnic.staged_bytes_frac", "ratio", ratio(s.counter("tcpnic.staged_bytes"), in.recvBytes), "of %.0f received object bytes", in.recvBytes)
	r.set("tcpnic.direct_frame_frac", "ratio", ratio(direct, direct+staged), "%.0f frames", direct+staged)
	m, n = s.histMean("tcpnic.writer_coalesce")
	r.set("tcpnic.writer_coalesce_mean", "count", m, "%d writer passes", n)

	sched := in.sched.Snapshot()
	shits, smisses := float64(sched.Counters["schedule.plan_cache_hits"]), float64(sched.Counters["schedule.plan_cache_misses"])
	r.set("schedule.plan_cache_hit_ratio", "ratio", ratio(shits, shits+smisses), "%.0f lookups, %d closed-form plans",
		shits+smisses, sched.Counters["schedule.nodeplan_fast"])
	r.set("schedule.plan_cache_size", "count", float64(schedule.PlanCacheSize()), "resident tables")
	us, calls := nodePlanProbe(in.groupSize, in.blocksPerObj)
	r.set("schedule.nodeplan_us", "us", us, "%d NodePlan calls at n=%d k=%d", calls, in.groupSize, in.blocksPerObj)

	in.sim.fill(r)
	l, err := runLadder(block)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	l.fill(r)
	return nil
}

// nodePlanProbe times direct binomial-pipeline NodePlan calls for every
// rank of an n-member group with k blocks, for about 50 ms.
func nodePlanProbe(n, k int) (us float64, calls int) {
	gen := schedule.New(schedule.BinomialPipeline)
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for rank := 0; rank < n; rank++ {
			_ = gen.NodePlan(n, k, rank)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls), calls
}

// fill reports the simulator and service-layer metrics; a nil receiver
// (real transports) reports them as 0.
func (s *simLayers) fill(r *report) {
	if s == nil {
		s = &simLayers{}
	}
	r.set("simnet.events", "count", ratio(s.events, float64(s.runs)), "mean Step calls per run, %d runs", s.runs)
	r.set("simnet.ns_per_event", "ns", ratio(s.hostNs, s.events), "%.0f events", s.events)
	r.set("simnet.pending_peak", "count", s.pendingPeak, "sampled every %d steps", pendingSampleEvery)
	r.set("simnet.virtual_per_host_s", "ratio", ratio(s.virtualS, s.hostS), "%.4g virtual s over %.4g host s", s.virtualS, s.hostS)
	r.set("service.admit_wait_ms", "ms", mean(s.admitWait)*1e3, "virtual, mean of %d writes", len(s.admitWait))
	r.set("service.queued_frac", "ratio", ratio(float64(s.queued), float64(s.submitted)), "of %d submissions", s.submitted)
	r.set("service.refused_frac", "ratio", ratio(float64(s.refused), float64(s.submitted)), "of %d submissions", s.submitted)
	r.set("sim.virtual_goodput_Gbps", "Gbps", median(s.virtualGbps), "median of %d runs", len(s.virtualGbps))
	r.set("sim.virtual_light_p99_ms", "ms", median(s.lightP99)*1e3, "light tenant, median of %d runs", len(s.lightP99))
}
