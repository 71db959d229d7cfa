package bench

import (
	"strconv"
	"strings"
	"testing"

	"rdmc/internal/rdma/reliab"
	"rdmc/internal/schedule"
)

func TestReportFormatting(t *testing.T) {
	r := Report{
		ID:      "x",
		Title:   "a title",
		Paper:   "the paper said so",
		Columns: []string{"col", "value"},
		Rows:    [][]string{{"row1", "1"}, {"longer row", "2"}},
		Notes:   []string{"a note"},
	}
	out := r.String()
	for _, want := range []string{"=== x: a title ===", "paper: the paper said so", "longer row", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryCoversOrder(t *testing.T) {
	reg := Experiments()
	for _, id := range Order() {
		if _, ok := reg[id]; !ok {
			t.Errorf("ordered experiment %q missing from registry", id)
		}
	}
	if len(reg) != len(Order()) {
		t.Errorf("registry has %d entries, order lists %d", len(reg), len(Order()))
	}
}

func TestClusterModels(t *testing.T) {
	for _, tt := range []struct {
		name   string
		cfg    func(int) float64
		wantBW float64
	}{
		{"fractus", func(n int) float64 { return Fractus(n).LinkBandwidth }, 100e9 / 8},
		{"sierra", func(n int) float64 { return Sierra(n).LinkBandwidth }, 40e9 / 8},
		{"stampede", func(n int) float64 { return Stampede(n).LinkBandwidth }, 40e9 / 8},
		{"apt", func(n int) float64 { return Apt(n).LinkBandwidth }, 40e9 / 8},
	} {
		if got := tt.cfg(4); got != tt.wantBW {
			t.Errorf("%s bandwidth = %g, want %g", tt.name, got, tt.wantBW)
		}
	}
	apt := Apt(16)
	if apt.RackSize != AptRackSize || apt.TrunkBandwidth != AptRackSize*16e9/8 {
		t.Errorf("apt topology = rack %d trunk %g", apt.RackSize, apt.TrunkBandwidth)
	}
	if err := Apt(16).Validate(); err != nil {
		t.Errorf("apt config invalid: %v", err)
	}
}

func TestMulticastOnceMatchesPhysics(t *testing.T) {
	// 64 MB to one receiver at 100 Gb/s must take ≈ size/bandwidth.
	elapsed := multicastOnce(Fractus(2), schedule.New(schedule.BinomialPipeline), 64*mib, mib)
	ideal := float64(64*mib) / (100e9 / 8)
	if ratio := elapsed / ideal; ratio < 1.0 || ratio > 1.2 {
		t.Errorf("elapsed/ideal = %.2f, want ≈1", ratio)
	}
}

func TestOverlapRunAggregates(t *testing.T) {
	// One sender, 4 nodes, two 8 MB messages: the aggregate must be near
	// the single-flow bandwidth on Fractus.
	bw := overlapRun(Fractus(4), 4, 1, 8*mib, 2)
	if bw < 60 || bw > 100 {
		t.Errorf("aggregate bandwidth = %.1f Gb/s, want 60–100", bw)
	}
}

func TestBreakdownOf(t *testing.T) {
	stats, _ := multicastStats(Stampede(4), schedule.New(schedule.BinomialPipeline), 16*mib, mib)
	far := stats[3]
	b := breakdownOf(far, float64(mib)/Stampede(4).LinkBandwidth)
	if b.total <= 0 || b.transfers <= 0 {
		t.Errorf("breakdown = %+v", b)
	}
	if b.transfers > b.total {
		t.Errorf("transfers %v exceed total %v", b.transfers, b.total)
	}
	if b.copySecs <= 0 {
		t.Error("copy time missing")
	}
}

// TestFastExperimentsProduceRows runs the cheap experiments end to end and
// checks their report structure; the heavyweight ones run under
// `go test -bench` and the rdmcbench CLI instead.
func TestFastExperimentsProduceRows(t *testing.T) {
	for _, id := range []string{"table1", "fig5", "slack", "slowlink", "delay", "hybrid"} {
		id := id
		t.Run(id, func(t *testing.T) {
			rep := Experiments()[id](Quick)
			if rep.ID != id {
				t.Errorf("report id = %q", rep.ID)
			}
			if len(rep.Rows) == 0 || len(rep.Columns) == 0 {
				t.Fatalf("experiment %s produced no data", id)
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Columns) {
					t.Errorf("%s: row %v does not match columns %v", id, row, rep.Columns)
				}
			}
		})
	}
}

// TestAdaptiveExperimentInvariants runs the adaptive experiment end to end
// and checks the properties the adaptive planner is sold on: with no foreign
// traffic its row is cell-for-cell the static hybrid's (mask 0 is the same
// plan), and under both contended configs it is at least as fast as the best
// static schedule.
func TestAdaptiveExperimentInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale experiment still multicasts 64 MB twelve times")
	}
	rep := AdaptiveScheduling(Quick)
	if len(rep.Rows) != 3 || len(rep.Columns) != 6 {
		t.Fatalf("report shape = %d rows × %d cols, want 3 × 6", len(rep.Rows), len(rep.Columns))
	}
	cell := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("cell %q: %v", row[i], err)
		}
		return v
	}
	// Columns: config, chain, pipeline, hybrid, adaptive, adaptive/best-static.
	if un := rep.Rows[0]; un[4] != un[3] {
		t.Errorf("uncontended adaptive %s Gb/s != static hybrid %s Gb/s", un[4], un[3])
	}
	for _, row := range rep.Rows[1:] {
		adaptive := cell(row, 4)
		for i := 1; i <= 3; i++ {
			if static := cell(row, i); adaptive < static {
				t.Errorf("%s: adaptive %.1f Gb/s loses to %s (%.1f Gb/s)",
					row[0], adaptive, rep.Columns[i], static)
			}
		}
	}
}

func TestGbpsAndFormatHelpers(t *testing.T) {
	if got := gbps(125e6, 1); got != 1.0 {
		t.Errorf("gbps(125e6, 1) = %v, want 1", got)
	}
	if got := gbps(1, 0); got != 0 {
		t.Errorf("gbps with zero time = %v", got)
	}
	if got := ms(0.0015); got != "1.50" {
		t.Errorf("ms = %q", got)
	}
	if got := us(1e-6); got != "1" {
		t.Errorf("us = %q", got)
	}
	if got := sizeLabel(mib); got != "1MB" {
		t.Errorf("sizeLabel(1MiB) = %q", got)
	}
	if got := sizeLabel(10 * kib); got != "10KB" {
		t.Errorf("sizeLabel(10KiB) = %q", got)
	}
	if got := sizeLabel(128); got != "128B" {
		t.Errorf("sizeLabel(128) = %q", got)
	}
}

func TestGroupSizes(t *testing.T) {
	if got := len(groupSizes(Full)); got != 14 {
		t.Errorf("full sweep has %d sizes, want 14 (3..16)", got)
	}
	if got := len(groupSizes(Quick)); got >= 14 {
		t.Errorf("quick sweep has %d sizes, want a trimmed set", got)
	}
}

// TestWANTransferDrainsByHorizon runs the golden WAN experiment's deadline-
// bounded transfers and asserts the event queue is empty by the horizon: once
// every member holds the message the reliability layer has cancelled its
// retransmit and FEC-flush timers, so nothing stale is left queued.
func TestWANTransferDrainsByHorizon(t *testing.T) {
	for _, fec := range []bool{false, true} {
		for _, loss := range []float64{0, 0.01} {
			cl := WANCluster(2, 1, loss, 11)
			rcfg := &reliab.Config{RTO: 0.2, MaxRTO: 0.8, Seed: 11}
			if fec {
				rcfg.FECGroup = 8
			}
			d := deployReliab(cl, false, rcfg)
			g := wanGroup(d, cl.Nodes)
			g.send(4 * mib)
			drained := d.grid.RunUntil(wanDeadline)
			if g.failures != 0 || g.delivered != len(g.members) {
				t.Fatalf("fec=%v loss=%v: delivered %d/%d, %d failures", fec, loss, g.delivered, len(g.members), g.failures)
			}
			if n := d.grid.Sim().Pending(); !drained || n != 0 {
				t.Errorf("fec=%v loss=%v: %d events still queued at the %v s horizon", fec, loss, n, wanDeadline)
			}
		}
	}
}
