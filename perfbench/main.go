// Command perfbench is the repository benchmark. One invocation runs one
// workload whose inputs derive from -seed, checks every delivered object,
// and prints a human-readable report followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// attaches an rdmc.Observer, records benchmark-side spans, runs the layer
// cost ladder and reports the per-layer metrics instead. README.md holds the
// workload rationale and which layer metric should move which end-to-end
// metric. Run it through run.sh, which builds it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"bulk-tcp":    func(cfg runConfig) (*report, error) { return runReal(bulkTCP(cfg.seed), cfg) },
	"small-shm":   func(cfg runConfig) (*report, error) { return runReal(smallShm(cfg.seed), cfg) },
	"sim-tenants": func(cfg runConfig) (*report, error) { return runSim(simTenants(), cfg) },
}

// runConfig is what every workload runner receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string // where the traced run writes its span dump
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: bulk-tcp, small-shm or sim-tenants")
		seed     = flag.Int64("seed", 1, "seed every input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		outDir   = flag.String("out", ".bench_build", "directory for the traced run's span dump")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		outDir:  *outDir,
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("# machine %s\n", fingerprint())
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// fingerprint names the machine a result came from; absolute timings only
// compare between runs with equal fingerprints.
func fingerprint() string {
	return fmt.Sprintf("goos=%s goarch=%s cpu=%q nproc=%d gomaxprocs=%d go=%s",
		runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// metric is one reported value; base says what it was computed over and is
// printed in the human-readable report only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	base  string
}

// report is one run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, value float64, base string, args ...any) {
	r.Metrics[name] = metric{Value: value, Unit: unit, base: fmt.Sprintf(base, args...)}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, one line per metric with its base, and the JSON
// result as the last line.
func (r *report) write(w io.Writer) error {
	r.Correct = r.Attempted > 0 && r.Failed == 0
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.6g %-6s (%s)\n", name, m.Value, m.Unit, m.base)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d objects)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
