package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchLinePlain(t *testing.T) {
	name, r, ok := parseBenchLine("BenchmarkSendWindow/tcpnic/size=16MB/w=4 \t       5\t   5318813 ns/op\t        3154.71 MB/s\t  373120 B/op\t     147 allocs/op")
	if !ok {
		t.Fatal("line not recognised")
	}
	if name != "BenchmarkSendWindow/tcpnic/size=16MB/w=4" {
		t.Fatalf("name = %q", name)
	}
	if len(r.nsOp) != 1 || r.nsOp[0] != 5318813 {
		t.Fatalf("ns/op = %v", r.nsOp)
	}
	if len(r.mbs) != 1 || r.mbs[0] != 3154.71 {
		t.Fatalf("MB/s = %v", r.mbs)
	}
	if len(r.bOp) != 1 || r.bOp[0] != 373120 {
		t.Fatalf("B/op = %v", r.bOp)
	}
	if len(r.allocOp) != 1 || r.allocOp[0] != 147 {
		t.Fatalf("allocs/op = %v", r.allocOp)
	}
}

func TestParseBenchLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkSendWindow/tcpnic/size=16MB/w=4", // progress line, no fields
		"goos: linux", // metadata
		"PASS",        // terminator
		"BenchmarkFoo \t notanumber \t 123 ns/op",  // bad iteration count
		"ok  \trdmc\t12.3s",                        // summary
		"BenchmarkBar \t 5 \t some trailing words", // no ns/op pair
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine accepted %q", line)
		}
	}
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseFilePlainText(t *testing.T) {
	p := writeTemp(t, "bench.txt", `goos: linux
goarch: amd64
BenchmarkA/x=1 	 10	 100 ns/op	 8 B/op	 1 allocs/op
BenchmarkA/x=1 	 10	 300 ns/op	 8 B/op	 1 allocs/op
BenchmarkB 	 5	 50 ns/op
PASS
`)
	results, order, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "BenchmarkA/x=1" || order[1] != "BenchmarkB" {
		t.Fatalf("order = %v", order)
	}
	m, ok := mean(results["BenchmarkA/x=1"].nsOp)
	if !ok || m != 200 {
		t.Fatalf("mean ns/op = %v (ok=%v), want 200", m, ok)
	}
}

func TestParseFileTest2JSON(t *testing.T) {
	p := writeTemp(t, "bench.json", `{"Time":"2026-08-08T00:00:00Z","Action":"start","Package":"rdmc"}
{"Time":"2026-08-08T00:00:01Z","Action":"output","Package":"rdmc","Output":"goos: linux\n"}
{"Time":"2026-08-08T00:00:02Z","Action":"output","Package":"rdmc","Output":"BenchmarkSendWindow/tcpnic/size=16MB/w=4 \t       5\t   5318813 ns/op\t  373120 B/op\t     147 allocs/op\n"}
{"Time":"2026-08-08T00:00:03Z","Action":"output","Package":"rdmc","Output":"PASS\n"}
{"Time":"2026-08-08T00:00:04Z","Action":"pass","Package":"rdmc","Elapsed":12.3}
`)
	results, order, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 {
		t.Fatalf("order = %v", order)
	}
	r := results["BenchmarkSendWindow/tcpnic/size=16MB/w=4"]
	if r == nil || len(r.nsOp) != 1 || r.nsOp[0] != 5318813 {
		t.Fatalf("result = %+v", r)
	}
}

// test2json splits a benchmark result across Output events: the name
// fragment ends in a tab and the measurements land in a later event.
func TestParseFileTest2JSONSplitLines(t *testing.T) {
	p := writeTemp(t, "bench.json", `{"Action":"output","Package":"rdmc","Output":"BenchmarkSendWindow/shmnic/size=16MB/w=4\n"}
{"Action":"output","Package":"rdmc","Output":"BenchmarkSendWindow/shmnic/size=16MB/w=4 \t"}
{"Action":"output","Package":"rdmc","Output":"       5\t   2485003 ns/op\t 6751.00 MB/s\t  2663 B/op\t      19 allocs/op\n"}
{"Action":"output","Package":"rdmc","Output":"PASS\n"}
`)
	results, order, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 {
		t.Fatalf("order = %v", order)
	}
	r := results["BenchmarkSendWindow/shmnic/size=16MB/w=4"]
	if r == nil || len(r.nsOp) != 1 || r.nsOp[0] != 2485003 {
		t.Fatalf("result = %+v", r)
	}
	if len(r.allocOp) != 1 || r.allocOp[0] != 19 {
		t.Fatalf("allocs = %v", r.allocOp)
	}
}

func TestFmtNs(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{2_500_000_000, "2.500s"},
		{5_318_813, "5.319ms"},
		{13_400, "13.40µs"},
		{250, "250ns"},
	}
	for _, c := range cases {
		if got := fmtNs(c.ns); got != c.want {
			t.Errorf("fmtNs(%v) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestFmtDelta(t *testing.T) {
	if got := fmtDelta(100, 80); got != "-20.00%" {
		t.Errorf("fmtDelta = %q", got)
	}
	if got := fmtDelta(0, 80); got != "n/a" {
		t.Errorf("fmtDelta zero-old = %q", got)
	}
}

func TestAppendTrajectoryCreatesAndAppends(t *testing.T) {
	p := filepath.Join(t.TempDir(), "trajectory.json")
	f := func(v float64) *float64 { return &v }
	first := deltaReport{
		Label: "r1", RecordedAt: "2026-08-08T00:00:00Z", Old: "a.json", New: "b.txt",
		Benchmarks: []deltaEntry{{Name: "BenchmarkA", Status: "compared", OldNsOp: f(100), NewNsOp: f(90), DeltaPct: f(-10)}},
	}
	if err := appendTrajectory(p, first); err != nil {
		t.Fatal(err)
	}
	second := deltaReport{Label: "r2", RecordedAt: "2026-08-08T01:00:00Z", Old: "a.json", New: "c.txt"}
	if err := appendTrajectory(p, second); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var records []deltaReport
	if err := json.Unmarshal(raw, &records); err != nil {
		t.Fatalf("trajectory is not a JSON array of reports: %v", err)
	}
	if len(records) != 2 || records[0].Label != "r1" || records[1].Label != "r2" {
		t.Fatalf("records = %+v", records)
	}
	if len(records[0].Benchmarks) != 1 || *records[0].Benchmarks[0].DeltaPct != -10 {
		t.Fatalf("first record lost its benchmark entries: %+v", records[0])
	}
	if raw[len(raw)-1] != '\n' {
		t.Error("trajectory file missing trailing newline")
	}
}

func TestAppendTrajectoryRejectsNonArrayFile(t *testing.T) {
	p := writeTemp(t, "not-a-trajectory.json", `{"label":"x"}`)
	if err := appendTrajectory(p, deltaReport{Label: "r"}); err == nil {
		t.Fatal("appendTrajectory accepted a non-array file")
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{100, 150, 200}); got != "▁▄█" {
		t.Errorf("sparkline = %q", got)
	}
	if got := sparkline([]float64{100, nan(), 200}); got != "▁·█" {
		t.Errorf("sparkline with gap = %q", got)
	}
	if got := sparkline([]float64{100, 100}); got != "▁▁" {
		t.Errorf("flat sparkline = %q", got)
	}
}

func TestTrendReport(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	records := []deltaReport{
		{
			Label: "r1", RecordedAt: "2026-08-01T00:00:00Z",
			Benchmarks: []deltaEntry{
				{Name: "BenchmarkA", Status: "compared", NewNsOp: f(100)},
				{Name: "BenchmarkOld", Status: "gone", OldNsOp: f(50)},
			},
		},
		{
			Label: "r2", RecordedAt: "2026-08-08T00:00:00Z",
			Benchmarks: []deltaEntry{
				{Name: "BenchmarkA", Status: "compared", NewNsOp: f(200)},
				{Name: "BenchmarkNew", Status: "new", NewNsOp: f(10)},
			},
		},
	}
	got := trendReport(records, nil)
	for _, want := range []string{
		"2 records, r1 (2026-08-01) to r2 (2026-08-08)",
		"| BenchmarkA | 100ns | 200ns | +100.00% | ▁█ |",
		"| BenchmarkOld | 50ns | 50ns | +0.00% | ▁· |",
		"| BenchmarkNew | 10ns | 10ns | +0.00% | ·▁ |",
	} {
		if !contains(got, want) {
			t.Errorf("trend report missing %q in:\n%s", want, got)
		}
	}
}

func TestTrendReportFilterAndEmpty(t *testing.T) {
	if got := trendReport(nil, nil); !contains(got, "(empty trajectory)") {
		t.Errorf("empty trajectory report = %q", got)
	}
	f := func(v float64) *float64 { return &v }
	records := []deltaReport{{
		Label: "r1", RecordedAt: "2026-08-01T00:00:00Z",
		Benchmarks: []deltaEntry{{Name: "BenchmarkA", Status: "compared", NewNsOp: f(100)}},
	}}
	got := trendReport(records, regexp.MustCompile("NoSuchBench"))
	if !contains(got, "(no benchmarks matched)") {
		t.Errorf("filtered-out report = %q", got)
	}
}

func contains(haystack, needle string) bool { return strings.Contains(haystack, needle) }
