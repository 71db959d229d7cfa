package simnet

import (
	"slices"
	"strings"
	"testing"
)

func testConfig(n int) ClusterConfig {
	return ClusterConfig{
		Nodes:         n,
		LinkBandwidth: 100, // 100 B/s for easy arithmetic
		Latency:       0.001,
		CPU:           DefaultCPUConfig(),
	}
}

func TestClusterTransferTiming(t *testing.T) {
	s := NewSim(1)
	c, err := NewCluster(s, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var done float64 = -1
	c.Transfer(0, 1, 100, func(broken bool) {
		if broken {
			t.Error("unexpected broken transfer")
		}
		done = s.Now()
	})
	s.Run()
	approx(t, done, 0.001+1.0, 1e-9, "transfer completion (latency + size/bw)")
}

func TestClusterSequentialSendSharesSenderNIC(t *testing.T) {
	// One sender pushing to two receivers concurrently: the sender's tx port
	// is the bottleneck, so each transfer gets half the bandwidth.
	s := NewSim(1)
	c, err := NewCluster(s, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 float64
	c.Transfer(0, 1, 100, func(bool) { t1 = s.Now() })
	c.Transfer(0, 2, 100, func(bool) { t2 = s.Now() })
	s.Run()
	approx(t, t1, 0.001+2.0, 1e-9, "receiver 1")
	approx(t, t2, 0.001+2.0, 1e-9, "receiver 2")
}

func TestClusterRelayUsesFullDuplex(t *testing.T) {
	// 0→1 and 1→2 concurrently: node 1 receives and sends at full rate
	// (full-duplex NIC), so both finish in 1s.
	s := NewSim(1)
	c, err := NewCluster(s, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 float64
	c.Transfer(0, 1, 100, func(bool) { t1 = s.Now() })
	c.Transfer(1, 2, 100, func(bool) { t2 = s.Now() })
	s.Run()
	approx(t, t1, 1.001, 1e-9, "inbound to relay")
	approx(t, t2, 1.001, 1e-9, "outbound from relay")
}

func TestClusterOversubscribedTrunkLimitsCrossRack(t *testing.T) {
	// Two racks of 2 nodes; trunk capacity 50 (< 100 NIC). A cross-rack
	// transfer is trunk-limited; an in-rack transfer is NIC-limited.
	cfg := testConfig(4)
	cfg.RackSize = 2
	cfg.TrunkBandwidth = 50
	s := NewSim(1)
	c, err := NewCluster(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cross, local float64
	c.Transfer(0, 2, 100, func(bool) { cross = s.Now() }) // rack 0 → rack 1
	c.Transfer(0, 1, 100, func(bool) { local = s.Now() }) // within rack 0
	s.Run()
	// Both leave node 0's tx (100 B/s shared). Cross-rack then crosses the
	// 50 B/s trunk. Max-min: cross gets 50, local gets 50 on tx; both 2s.
	approx(t, cross, 2.001, 1e-6, "cross-rack transfer")
	approx(t, local, 2.001, 1e-6, "in-rack transfer")

	// Cross-rack alone is trunk-limited to 50 B/s.
	s2 := NewSim(1)
	c2, err := NewCluster(s2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var crossAlone float64
	c2.Transfer(0, 2, 100, func(bool) { crossAlone = s2.Now() })
	s2.Run()
	approx(t, crossAlone, 2.001, 1e-9, "trunk-limited transfer")
}

func TestClusterRackAssignment(t *testing.T) {
	cfg := testConfig(5)
	cfg.RackSize = 2
	cfg.TrunkBandwidth = 100
	c, err := NewCluster(NewSim(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRacks := []int{0, 0, 1, 1, 2}
	for i, want := range wantRacks {
		if got := c.Rack(NodeID(i)); got != want {
			t.Errorf("Rack(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestClusterSlowLinkOverride(t *testing.T) {
	s := NewSim(1)
	c, err := NewCluster(s, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c.SetLinkBandwidth(0, 1, 25)
	var done float64
	c.Transfer(0, 1, 100, func(bool) { done = s.Now() })
	s.Run()
	approx(t, done, 0.001+4.0, 1e-9, "slow-link transfer")

	// The reverse direction is unaffected.
	s2 := NewSim(1)
	c2, _ := NewCluster(s2, testConfig(2))
	c2.SetLinkBandwidth(0, 1, 25)
	var rev float64
	c2.Transfer(1, 0, 100, func(bool) { rev = s2.Now() })
	s2.Run()
	approx(t, rev, 1.001, 1e-9, "reverse direction at full rate")
}

func TestClusterBreakLinkMidTransfer(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(2)
	cfg.RetryTimeout = 0.01
	c, err := NewCluster(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		brokenAt float64 = -1
		wasOK            = false
	)
	c.Transfer(0, 1, 100, func(broken bool) {
		if broken {
			brokenAt = s.Now()
		} else {
			wasOK = true
		}
	})
	s.At(0.5, func() { c.BreakLink(0, 1) })
	s.Run()
	if wasOK {
		t.Fatal("transfer across broken link reported success")
	}
	approx(t, brokenAt, 0.5+0.01, 1e-9, "break completion after retry timeout")
}

func TestClusterNewTransferOnBrokenLinkFails(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(2)
	cfg.RetryTimeout = 0.01
	c, _ := NewCluster(s, cfg)
	c.BreakLink(0, 1)
	broken := false
	c.Transfer(0, 1, 100, func(b bool) { broken = b })
	s.Run()
	if !broken {
		t.Error("transfer on pre-broken link did not report failure")
	}
}

func TestClusterFailNodeBreaksInFlowIDOrder(t *testing.T) {
	// Several in-flight transfers broken by one FailNode arm their broken
	// notices at the same instant, so the notices fire in the order they
	// were armed. That order must be the flows' id order (here, launch
	// order) on every run — not an order the run happens to produce, which
	// is what ranging over a map of in-flight transfers gave. Transfers into
	// the failed node are collected too, from their senders' ports.
	pairs := [][2]NodeID{{0, 1}, {2, 0}, {0, 3}, {4, 0}, {0, 5}}
	for run := 0; run < 20; run++ {
		s := NewSim(1)
		cfg := testConfig(6)
		cfg.RetryTimeout = 0.01
		c, err := NewCluster(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		for i, p := range pairs {
			c.Transfer(p[0], p[1], 1000, func(broken bool) {
				if !broken {
					t.Errorf("transfer %d survived FailNode(0)", i)
				}
				order = append(order, i)
			})
		}
		s.At(0.5, func() { c.FailNode(0) })
		s.Run()
		if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("run %d: broken notices fired in order %v, want flow-id order [0 1 2 3 4]", run, order)
		}
	}
}

func TestClusterFrameAllocatesOneFlow(t *testing.T) {
	// A block transfer's launch, fabric flow and notice all ride one Flow:
	// with a callback bound once, the transfer costs that one allocation.
	s := NewSim(1)
	c, err := NewCluster(s, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	onDone := func(o Outcome) {
		if o == OutcomeDelivered {
			delivered++
		}
	}
	frame := func() {
		delivered = 0
		c.Frame(0, 1, 100, false, onDone)
		c.Frame(2, 1, 100, false, onDone)
		s.Run()
		if delivered != 2 {
			t.Fatalf("delivered %d of 2 transfers", delivered)
		}
	}
	frame() // grow the event heap and fabric scratch
	if allocs := testing.AllocsPerRun(50, frame); allocs > 2 {
		t.Errorf("two concurrent transfers allocate %.1f objects, want at most 2 (one Flow each)", allocs)
	}
}

func TestClusterFailNodeBreaksBothDirections(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(3)
	cfg.RetryTimeout = 0.01
	c, _ := NewCluster(s, cfg)
	var results []bool
	c.Transfer(0, 1, 1000, func(b bool) { results = append(results, b) })
	c.Transfer(1, 2, 1000, func(b bool) { results = append(results, b) })
	c.Transfer(0, 2, 100, func(b bool) { results = append(results, b) })
	s.At(0.1, func() { c.FailNode(1) })
	s.Run()
	if !c.NodeFailed(1) {
		t.Error("NodeFailed(1) = false after FailNode")
	}
	nBroken := 0
	for _, b := range results {
		if b {
			nBroken++
		}
	}
	if nBroken != 2 {
		t.Errorf("broken transfers = %d, want 2 (both touching node 1)", nBroken)
	}
}

func TestClusterRestoreLinkReadmitsNewTransfers(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(2)
	cfg.RetryTimeout = 0.01
	c, _ := NewCluster(s, cfg)

	// Break at 0.1 with a transfer in flight, heal at 0.3, start a fresh
	// transfer at 0.4: the first breaks, the second completes normally.
	var firstBroken, secondBroken bool
	var secondDone float64 = -1
	c.Transfer(0, 1, 100, func(b bool) { firstBroken = b })
	s.At(0.1, func() { c.BreakLink(0, 1) })
	s.At(0.3, func() { c.RestoreLink(0, 1) })
	s.At(0.4, func() {
		c.Transfer(0, 1, 50, func(b bool) {
			secondBroken = b
			secondDone = s.Now()
		})
	})
	s.Run()
	if !firstBroken {
		t.Error("in-flight transfer survived the partition")
	}
	if secondBroken {
		t.Error("transfer after RestoreLink still broken")
	}
	approx(t, secondDone, 0.4+0.001+0.5, 1e-9, "post-heal transfer timing")
}

func TestClusterRestoreLinkIsDirectional(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(2)
	cfg.RetryTimeout = 0.01
	c, _ := NewCluster(s, cfg)
	c.BreakLink(0, 1)
	c.BreakLink(1, 0)
	c.RestoreLink(0, 1)
	var fwd, rev bool
	c.Transfer(0, 1, 10, func(b bool) { fwd = b })
	c.Transfer(1, 0, 10, func(b bool) { rev = b })
	s.Run()
	if fwd {
		t.Error("restored direction 0→1 still broken")
	}
	if !rev {
		t.Error("direction 1→0 healed without RestoreLink")
	}
}

func TestClusterRestoreNodeReadmitsTraffic(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(3)
	cfg.RetryTimeout = 0.01
	c, _ := NewCluster(s, cfg)
	c.FailNode(1)
	var whileDown bool
	c.Transfer(0, 1, 10, func(b bool) { whileDown = b })
	s.At(0.2, func() { c.RestoreNode(1) })
	var afterUp, ctrlSeen bool
	var afterDone float64 = -1
	s.At(0.3, func() {
		c.Transfer(1, 2, 10, func(b bool) {
			afterUp = b
			afterDone = s.Now()
		})
		c.Ctrl(0, 1, func() { ctrlSeen = true })
	})
	s.Run()
	if !whileDown {
		t.Error("transfer to a failed node did not break")
	}
	if c.NodeFailed(1) {
		t.Error("NodeFailed(1) = true after RestoreNode")
	}
	if afterUp {
		t.Error("transfer from restored node broke")
	}
	if !ctrlSeen {
		t.Error("ctrl message to restored node was dropped")
	}
	approx(t, afterDone, 0.3+0.001+0.1, 1e-9, "post-restore transfer timing")
}

func TestClusterRestoreNodeKeepsBrokenLinksBroken(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(2)
	cfg.RetryTimeout = 0.01
	c, _ := NewCluster(s, cfg)
	c.BreakLink(0, 1)
	c.FailNode(1)
	c.RestoreNode(1)
	var broken bool
	c.Transfer(0, 1, 10, func(b bool) { broken = b })
	s.Run()
	if !broken {
		t.Error("RestoreNode healed a link broken with BreakLink")
	}
}

func TestClusterCtrlDeliveryAndDropOnBrokenPath(t *testing.T) {
	s := NewSim(1)
	c, _ := NewCluster(s, testConfig(2))
	var at float64 = -1
	c.Ctrl(0, 1, func() { at = s.Now() })
	s.Run()
	approx(t, at, 0.001, 1e-12, "ctrl delivery")

	c.BreakLink(0, 1)
	delivered := false
	c.Ctrl(0, 1, func() { delivered = true })
	s.Run()
	if delivered {
		t.Error("ctrl message crossed a broken link")
	}
}

func TestClusterSelfTransfer(t *testing.T) {
	s := NewSim(1)
	c, _ := NewCluster(s, testConfig(1))
	var done float64 = -1
	c.Transfer(0, 0, 1e12, func(broken bool) {
		if broken {
			t.Error("self transfer broke")
		}
		done = s.Now()
	})
	s.Run()
	approx(t, done, 0.001, 1e-12, "self transfer is latency-only")
}

func TestClusterConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  ClusterConfig
		want string
	}{
		{"no nodes", ClusterConfig{LinkBandwidth: 1}, "at least 1 node"},
		{"no bandwidth", ClusterConfig{Nodes: 2}, "bandwidth must be positive"},
		{"negative latency", ClusterConfig{Nodes: 2, LinkBandwidth: 1, Latency: -1}, "latency"},
		{"negative rack", ClusterConfig{Nodes: 2, LinkBandwidth: 1, RackSize: -1}, "rack size"},
		{"rack without trunk", ClusterConfig{Nodes: 2, LinkBandwidth: 1, RackSize: 2}, "trunk"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCluster(NewSim(1), tt.cfg)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %v, want substring %q", err, tt.want)
			}
		})
	}
}
