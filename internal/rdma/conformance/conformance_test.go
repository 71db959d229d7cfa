package conformance

import (
	"net"
	"testing"
	"time"

	"rdmc/internal/rdma"
	"rdmc/internal/rdma/shmnic"
	"rdmc/internal/rdma/simnic"
	"rdmc/internal/rdma/tcpnic"
	"rdmc/internal/simnet"
)

func TestSimnicConformance(t *testing.T) {
	Run(t, func(t *testing.T) *Harness {
		sim := simnet.NewSim(1)
		cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
			Nodes:         2,
			LinkBandwidth: 1e6,
			Latency:       0.001,
			CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
			RetryTimeout:  0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
		network := simnic.NewNetwork(cluster)
		return &Harness{
			A:      network.Provider(0),
			B:      network.Provider(1),
			Settle: func() { sim.Run() },
			Timer: func(d float64, fn func()) func() {
				ev := sim.NewEvent(fn)
				ev.Schedule(sim.Now() + d)
				return ev.Cancel
			},
		}
	})
}

func TestShmNicConformance(t *testing.T) {
	Run(t, func(t *testing.T) *Harness {
		ex := shmnic.NewExchange()
		a, err := shmnic.New(shmnic.Config{NodeID: 0, Exchange: ex})
		if err != nil {
			t.Fatal(err)
		}
		b, err := shmnic.New(shmnic.Config{NodeID: 1, Exchange: ex})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = a.Close()
			_ = b.Close()
		})
		return &Harness{
			A:      a,
			B:      b,
			Settle: func() { time.Sleep(time.Millisecond) },
		}
	})
}

func TestTCPNicConformance(t *testing.T) {
	Run(t, func(t *testing.T) *Harness {
		lnA, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lnB, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := map[rdma.NodeID]string{0: lnA.Addr().String(), 1: lnB.Addr().String()}
		a, err := tcpnic.New(tcpnic.Config{NodeID: 0, Listener: lnA, Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		b, err := tcpnic.New(tcpnic.Config{NodeID: 1, Listener: lnB, Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = a.Close()
			_ = b.Close()
		})
		return &Harness{
			A:      a,
			B:      b,
			Settle: func() { time.Sleep(50 * time.Millisecond) },
		}
	})
}
