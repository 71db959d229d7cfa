package simhost

import (
	"testing"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/reliab"
	"rdmc/internal/simnet"
)

func testConfig(n int) Config {
	return Config{
		Cluster: simnet.ClusterConfig{
			Nodes:         n,
			LinkBandwidth: 12.5e9,
			Latency:       1.5e-6,
			CPU:           simnet.DefaultCPUConfig(),
		},
		Seed: 1,
	}
}

func TestGridWiresEngines(t *testing.T) {
	grid, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if grid.Nodes() != 3 {
		t.Fatalf("nodes = %d", grid.Nodes())
	}
	for i := 0; i < 3; i++ {
		if got := grid.Engine(i).NodeID(); got != rdma.NodeID(i) {
			t.Errorf("engine %d has node id %d", i, got)
		}
	}
}

func TestGridControlPreservesSenderOrder(t *testing.T) {
	grid, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &gridControl{grid: grid, local: 0}
	sink := &gridControl{grid: grid, local: 1}
	var seqs []int
	sink.SetHandler(func(from rdma.NodeID, m core.CtrlMsg) {
		if from != 0 {
			t.Errorf("from = %d", from)
		}
		seqs = append(seqs, m.Seq)
	})
	for i := 0; i < 10; i++ {
		if err := ctrl.Send(1, core.CtrlMsg{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	grid.Run()
	for i, s := range seqs {
		if s != i {
			t.Fatalf("control messages reordered: %v", seqs)
		}
	}
}

func TestGridControlSendAllocatesNothing(t *testing.T) {
	grid, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &gridControl{grid: grid, local: 0}
	sink := &gridControl{grid: grid, local: 1}
	delivered := 0
	sink.SetHandler(func(rdma.NodeID, core.CtrlMsg) { delivered++ })
	send := func() {
		_ = ctrl.Send(1, core.CtrlMsg{Kind: core.CtrlReadyBlock, Seq: 1})
		grid.Run()
	}
	send() // grow the cell pool and the event heap
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("gridControl.Send allocates %.1f objects per message, want 0", allocs)
	}
	if delivered != 102 {
		t.Errorf("delivered %d messages, want 102", delivered)
	}
	// A frame the cluster drops hands its cell straight back.
	grid.Cluster().FailNode(1)
	idle := len(grid.ctrlCells)
	send()
	if len(grid.ctrlCells) != idle || delivered != 102 {
		t.Errorf("dropped frame: %d idle cells (want %d), %d delivered (want 102)", len(grid.ctrlCells), idle, delivered)
	}
}

func TestGridHostClockAndCopy(t *testing.T) {
	grid, err := New(Config{
		Cluster: simnet.ClusterConfig{
			Nodes:         1,
			LinkBandwidth: 1e9,
			CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
		},
		CopyBandwidth: 1e6, // 1 MB/s so the copy charge is visible
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	host := &gridHost{grid: grid, local: 0, copyBW: 1e6}
	var at time.Duration
	host.ChargeCopy(1e6, func() { at = host.Now() })
	grid.Run()
	if at != time.Second {
		t.Errorf("copy of 1 MB at 1 MB/s finished at %v, want 1s", at)
	}
}

func TestGridFailNodeNotifiesEngines(t *testing.T) {
	grid, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	members := []rdma.NodeID{0, 1, 2}
	var failures int
	for i := 0; i < 3; i++ {
		_, err := grid.Engine(i).CreateGroup(1, members, core.GroupConfig{
			BlockSize: 1024,
			Callbacks: core.Callbacks{Failure: func(error) { failures++ }},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	grid.FailNode(2)
	grid.Run()
	if failures != 2 {
		t.Errorf("failure callbacks = %d, want 2 survivors", failures)
	}
}

func TestGridRejectsBadCluster(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestGridReliabDeliversOverLossyWAN is the end-to-end seam test for the
// loss-tolerant stack: a 3-region lossy fabric under a Reliab-wrapped grid
// must deliver a full multicast (where the bare grid would break), with the
// loss showing up as retransmissions in ReliabStats.
func TestGridReliabDeliversOverLossyWAN(t *testing.T) {
	cfg := Config{
		Cluster: simnet.ClusterConfig{
			Nodes:         6,
			LinkBandwidth: 1.25e9,
			Latency:       5e-6,
			CPU:           simnet.DefaultCPUConfig(),
			RetryTimeout:  0.05,
			Fabric: &simnet.FabricProfile{
				Seed:    7,
				Regions: []int{0, 0, 1, 1, 2, 2},
				RTT: [][]float64{
					{0.0002, 0.030, 0.080},
					{0.030, 0.0002, 0.050},
					{0.080, 0.050, 0.0002},
				},
				LossRate: 0.02,
			},
		},
		Seed:   1,
		Reliab: &reliab.Config{RTO: 0.15},
	}
	grid, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := []rdma.NodeID{0, 1, 2, 3, 4, 5}
	var delivered, failures int
	var root *core.Group
	for i := 0; i < 6; i++ {
		g, err := grid.Engine(i).CreateGroup(1, members, core.GroupConfig{
			BlockSize:  64 << 10,
			SendWindow: 1,
			RecvWindow: 1,
			Callbacks: core.Callbacks{
				Completion: func(int, []byte, int) { delivered++ },
				Failure:    func(error) { failures++ },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if g.Rank() == 0 {
			root = g
		}
	}
	if err := root.SendSized(1 << 20); err != nil {
		t.Fatal(err)
	}
	grid.Run()
	if failures != 0 {
		t.Fatalf("%d engines failed: loss should be absorbed by the reliability layer", failures)
	}
	if delivered != 6 {
		t.Fatalf("delivered = %d of 6", delivered)
	}
	st := grid.ReliabStats()
	if st.Retransmits == 0 {
		t.Error("2% loss on a WAN produced no retransmissions")
	}
	if st.DataFrames == 0 || st.AcksReceived == 0 {
		t.Errorf("stats look unwired: %+v", st)
	}
}
