package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ratio is a/b, or 0 when b is 0 (a layer the workload never touches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// usage is a process resource reading; deltas between two readings bracket
// a timed phase.
type usage struct {
	cpu     float64 // user+sys seconds
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		mallocs: ms.Mallocs,
	}
}

func (u usage) sub(o usage) usage { return usage{cpu: u.cpu - o.cpu, mallocs: u.mallocs - o.mallocs} }

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	u.mallocs += o.mallocs
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6
}

// maxSteal is the share of the host's CPU time the hypervisor may take
// during a slice of a run before the slice's timings are set aside. On a
// shared host, steal comes in bursts that slow everything by up to a
// quarter for tens of seconds, longer than any statistic within a run can
// average out; the program cannot cause it.
const maxSteal = 0.05

// stealMeter brackets a slice with readings of /proc/stat: cumulative CPU
// ticks of the host and the part the hypervisor stole. Where /proc/stat is
// unavailable both read 0 and no slice is set aside.
type stealMeter struct{ steal, total uint64 }

func readSteal() stealMeter {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealMeter{}
	}
	var m stealMeter
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealMeter{}
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m
}

// stolen is the share of CPU time stolen since the meter was read.
func (m stealMeter) stolen() float64 {
	now := readSteal()
	return ratio(float64(now.steal-m.steal), float64(now.total-m.total))
}

// tally accumulates one run's outcome across slices (deployments or
// simulated runs): correctness over every object sent, timings over the
// timed phases of the slices kept.
type tally struct {
	attempted, failed int
	setAside          int // slices whose timings were dropped for CPU steal

	setups    []float64 // seconds per deployment
	delivered int       // timed objects delivered intact
	bytes     float64   // their object bytes
	latencies []float64 // seconds, send to last receiver's completion
	elapsed   float64   // timed seconds
	batches   []float64 // seconds per fixed batch of objects
	batchDesc string
	used      usage // resources over the timed phase
}

// add merges one slice's tally; with keep false only its correctness counts.
func (t *tally) add(s *tally, keep bool) {
	t.attempted += s.attempted
	t.failed += s.failed
	if !keep {
		t.setAside++
		return
	}
	t.setups = append(t.setups, s.setups...)
	t.delivered += s.delivered
	t.bytes += s.bytes
	t.latencies = append(t.latencies, s.latencies...)
	t.elapsed += s.elapsed
	t.batches = append(t.batches, s.batches...)
	t.batchDesc = s.batchDesc
	t.used.add(s.used)
}

// keepSlice says whether a slice's timings count: its steal stayed within
// maxSteal, or the run has used its budget of 7/5 of its length and takes
// what it gets.
func keepSlice(m stealMeter, runStart time.Time, length time.Duration) bool {
	return m.stolen() <= maxSteal || time.Since(runStart) > length*7/5
}

// endToEnd fills the end-to-end metrics every workload reports.
func (t *tally) endToEnd(r *report) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	n := len(t.latencies)
	r.set("setup_s", "s", median(t.setups), "median of %d deployments", len(t.setups))
	r.set("goodput_MBps", "MB/s", t.bytes/1e6/t.elapsed, "%d objects in %.2f s", t.delivered, t.elapsed)
	r.set("latency_p50_ms", "ms", quantile(t.latencies, 0.5)*1e3, "%d objects", n)
	r.set("cpu_s_per_GB", "s/GB", ratio(t.used.cpu, t.bytes/1e9), "%.2f cpu s over %.3f GB", t.used.cpu, t.bytes/1e9)
	r.set("allocs_per_obj", "count", ratio(float64(t.used.mallocs), float64(t.delivered)), "%d objects", t.delivered)
	r.set("peak_rss_MB", "MB", peakRSSMB(), "whole process")
	r.set("wall_s", "s", median(t.batches), "median of %d batches of %s", len(t.batches), t.batchDesc)
	r.note("%d slices set aside for CPU steal above %g", t.setAside, maxSteal)
	// The tail percentiles are notes, not bounded metrics: bulk-tcp's tail
	// swings by more than any allowed bound when neighbours contend for the
	// host's memory bandwidth. Each needs ten samples beyond it.
	for _, p := range []float64{0.9, 0.99} {
		if float64(n)*(1-p) >= 10 {
			r.note("latency p%g %.4g ms over %d objects", p*100, quantile(t.latencies, p)*1e3, n)
		} else {
			r.note("latency p%g not reported: %d objects are too few", p*100, n)
		}
	}
}

// batchDurations splits sorted completion offsets (seconds from the start of
// the timed phase) into consecutive batches of size objects.
func batchDurations(done []float64, size int) []float64 {
	sort.Float64s(done)
	var out []float64
	prev := 0.0
	for i := size - 1; i < len(done); i += size {
		out = append(out, done[i]-prev)
		prev = done[i]
	}
	return out
}
