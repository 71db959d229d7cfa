package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the in-memory span log (about 56 bytes a span); spans past
// it are counted, not kept.
const maxSpans = 1 << 18

// span is one benchmark-side interval around a call into, or a callback out
// of, the program. Spans of one object share obj; parent indexes the span
// that caused this one (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the log's origin
	parent     int
	obj        int64
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one pointer test per call site.
type spanLog struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// open starts a span whose end is set later by close; it returns the span's
// index, or -1 when nothing was recorded.
func (l *spanLog) open(name string, start time.Time, parent int, obj int64) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: start.Sub(l.origin), end: -1, parent: parent, obj: obj})
	return len(l.spans) - 1
}

func (l *spanLog) close(id int, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].end = end.Sub(l.origin)
	l.mu.Unlock()
}

// add records a finished span.
func (l *spanLog) add(name string, start, end time.Time, parent int, obj int64) int {
	id := l.open(name, start, parent, obj)
	l.close(id, end)
	return id
}

// spanStat summarizes the finished spans of one name.
type spanStat struct {
	count    int
	median   float64 // duration, seconds
	selfMean float64 // mean self time, seconds
}

// stats returns per-name duration medians and mean self times. A span's
// self time is its duration minus the part of it its children cover.
func (l *spanLog) stats() map[string]spanStat {
	out := make(map[string]spanStat)
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range l.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for i, s := range l.spans {
		if s.end < 0 {
			continue
		}
		durs[s.name] = append(durs[s.name], (s.end - s.start).Seconds())
		selfs[s.name] = append(selfs[s.name], (s.end - s.start - l.covered(s, children[i])).Seconds())
	}
	for name, d := range durs {
		out[name] = spanStat{count: len(d), median: median(d), selfMean: mean(selfs[name])}
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to s.
func (l *spanLog) covered(s span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := l.spans[k]
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			total += v.b - reach
			reach = v.b
		}
	}
	return total
}

// dump writes the spans as JSON lines to path.
func (l *spanLog) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	l.mu.Lock()
	for i, s := range l.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"obj":%d}`+"\n",
			i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.obj)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeSpans dumps the traced run's spans under outDir/trace and notes where.
func writeSpans(r *report, l *spanLog, outDir, workload string) error {
	path := filepath.Join(outDir, "trace", workload+".spans.jsonl")
	if err := l.dump(path); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	r.note("%d spans written to %s (%d dropped over the cap)", len(l.spans), path, l.dropped)
	return nil
}
