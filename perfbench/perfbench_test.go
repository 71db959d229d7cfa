package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// Toy sizes keep each workload's full path (deploy, closed loop, gate) under
// a second.

func toyBulk() *realSpec {
	s := bulkTCP(1)
	s.objBytes, s.blockBytes, s.batch, s.setups, s.warmup = 1<<20, 256<<10, 4, 2, 0
	return s
}

func toySmall() *realSpec {
	s := smallShm(1)
	s.objBytes, s.blockBytes, s.batch, s.setups, s.warmup = 128<<10, 64<<10, 64, 2, 0
	return s
}

func toySim() *simSpec {
	s := simTenants()
	s.nodes, s.groupsPerTenant, s.heavyBytes = 32, 4, 256<<10
	s.maxInFlight, s.outstanding, s.writes = 4, 12, 60
	return s
}

func toyRun(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 1, seconds: 300 * time.Millisecond, traced: traced, outDir: t.TempDir()}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkReport asserts the gate passed and the report carries exactly the
// declared metrics with their units, and that its last output line is the
// JSON result.
func checkReport(t *testing.T, r *report, want []struct{ Name, Unit string }) {
	t.Helper()
	var out bytes.Buffer
	if err := r.write(&out); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("gate: correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("report has %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := r.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s unit %q, declared %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestWorkloadsPassGate(t *testing.T) {
	decl := loadBenchmarkFile(t)
	for name, run := range map[string]func(runConfig) (*report, error){
		"bulk-tcp":    func(c runConfig) (*report, error) { return runReal(toyBulk(), c) },
		"small-shm":   func(c runConfig) (*report, error) { return runReal(toySmall(), c) },
		"sim-tenants": func(c runConfig) (*report, error) { return runSim(toySim(), c) },
	} {
		t.Run(name, func(t *testing.T) {
			r, err := run(toyRun(t, false))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, r, decl.EndToEnd)
			for _, w := range decl.EndToEnd {
				if v := r.Metrics[w.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", w.Name, v)
				}
			}
		})
	}
}

func TestTracedRunsReportEveryLayer(t *testing.T) {
	decl := loadBenchmarkFile(t)
	for name, run := range map[string]func(runConfig) (*report, error){
		"small-shm":   func(c runConfig) (*report, error) { return runReal(toySmall(), c) },
		"sim-tenants": func(c runConfig) (*report, error) { return runSim(toySim(), c) },
	} {
		t.Run(name, func(t *testing.T) {
			r, err := run(toyRun(t, true))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, r, decl.PerLayer)
		})
	}
}

// The gate must be able to fail: a corrupted receive buffer and a withheld
// completion each count as exactly one failed object.
func TestGateCountsCorruptedBuffer(t *testing.T) {
	spec := toyBulk()
	spec.setups = 1 // each deployment would apply the fault again
	spec.faults.corrupt = 2
	r, err := runReal(spec, toyRun(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 {
		t.Fatalf("failed = %d of %d, want 1", r.Failed, r.Attempted)
	}
}

func TestGateCountsWithheldCompletion(t *testing.T) {
	spec := toyBulk()
	spec.setups = 1
	spec.faults.withhold = 2
	spec.deadline = 500 * time.Millisecond
	r, err := runReal(spec, toyRun(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 {
		t.Fatalf("failed = %d of %d, want 1", r.Failed, r.Attempted)
	}
}

func TestSimGateCountsWithheldCompletion(t *testing.T) {
	spec := toySim()
	spec.withhold = 5
	r, err := runSim(spec, toyRun(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 {
		t.Fatalf("failed = %d of %d, want 1", r.Failed, r.Attempted)
	}
}

// Equal seeds give equal virtual-time results.
func TestSimDigestRepeats(t *testing.T) {
	digest := func() string {
		var digests []string
		if _, err := simMeasure(toySim(), 7, 0, &tally{}, &digests, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		return digests[0]
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("digests differ: %s vs %s", a, b)
	}
}

func TestSmallShmDrawIsBalanced(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var roots, left [4]int
		seen := make(map[string]bool)
		for _, g := range smallShm(seed).groups {
			roots[g[0]]++
			in := [4]bool{}
			for _, m := range g {
				in[m] = true
			}
			for n, ok := range in {
				if !ok {
					left[n]++
				}
			}
			seen[fmt.Sprint(g)] = true
		}
		if roots != [4]int{2, 2, 2, 2} || left != [4]int{2, 2, 2, 2} || len(seen) != 8 {
			t.Fatalf("seed %d: roots %v, left out %v, %d distinct groups", seed, roots, left, len(seen))
		}
	}
}
