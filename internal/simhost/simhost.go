// Package simhost assembles a complete simulated RDMC deployment: a simnet
// cluster, one simnic provider plus control channel and host services per
// node, and one protocol engine per node, all driven by a single virtual
// clock. The benchmark harness and the public library's simulation
// constructors build on it.
package simhost

import (
	"fmt"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/reliab"
	"rdmc/internal/rdma/simnic"
	"rdmc/internal/schedule"
	"rdmc/internal/simnet"
)

// Config describes a simulated deployment.
type Config struct {
	// Cluster is the hardware model (see simnet.ClusterConfig).
	Cluster simnet.ClusterConfig
	// CopyBandwidth models critical-path memory copies, in bytes per
	// second. Zero selects 5 GB/s, matching the paper's Table 1 copy rate
	// (1 MB in ≈215 µs).
	CopyBandwidth float64
	// Seed fixes the virtual run's randomness.
	Seed int64
	// Offload enables CORE-Direct-style NIC offload on every node
	// (Figure 12's cross-channel mode).
	Offload bool
	// Observer, when non-nil, instruments every engine and NIC in the grid.
	// The deployment shares one sink: the virtual clock is global, and each
	// structured event carries its node id, so one ring holds the whole
	// grid's timeline (exactly what the Chrome-trace exporter wants).
	Observer *obs.Obs
	// Reliab, when non-nil, wraps every node's NIC in the selective-
	// retransmit reliability layer (internal/rdma/reliab) and switches the
	// simulated NICs into loss-tolerant mode, so a lossy FabricProfile
	// (Cluster.Fabric) costs retransmissions instead of broken queue pairs.
	// The config's Timer is replaced with the grid's virtual clock; a zero
	// MaxPayload defaults to 4 KiB (simulation frames carry metadata, not
	// payload bytes); a zero Seed derives per-node seeds from the grid seed.
	Reliab *reliab.Config
}

// Grid is a simulated deployment of engines sharing one virtual clock.
type Grid struct {
	sim      *simnet.Sim
	cluster  *simnet.Cluster
	network  *simnic.Network
	engines  []*core.Engine
	reliabs  []*reliab.Provider
	handlers []func(from rdma.NodeID, m core.CtrlMsg)
	// ctrlCells holds idle control-message cells (see gridControl.Send).
	ctrlCells []*ctrlCell
}

// New builds the deployment.
func New(cfg Config) (*Grid, error) {
	if cfg.CopyBandwidth == 0 {
		cfg.CopyBandwidth = 5e9
	}
	sim := simnet.NewSim(cfg.Seed)
	cluster, err := simnet.NewCluster(sim, cfg.Cluster)
	if err != nil {
		return nil, fmt.Errorf("simhost: %w", err)
	}
	g := &Grid{
		sim:      sim,
		cluster:  cluster,
		network:  simnic.NewNetwork(cluster),
		handlers: make([]func(rdma.NodeID, core.CtrlMsg), cfg.Cluster.Nodes),
	}
	if cfg.Reliab != nil {
		g.network.SetTolerant(true)
	}
	for i := 0; i < cfg.Cluster.Nodes; i++ {
		id := rdma.NodeID(i)
		provider := g.network.Provider(id)
		provider.SetOffload(cfg.Offload)
		if cfg.Observer != nil {
			provider.SetObserver(cfg.Observer)
		}
		var nic rdma.Provider = provider
		if cfg.Reliab != nil {
			rcfg := *cfg.Reliab
			rcfg.Timer = func(d float64, fn func()) func() {
				ev := sim.NewEvent(fn)
				ev.Schedule(sim.Now() + d)
				return ev.Cancel
			}
			if rcfg.MaxPayload == 0 {
				rcfg.MaxPayload = 4 << 10
			}
			if rcfg.Seed == 0 {
				rcfg.Seed = cfg.Seed * 1000
			}
			rcfg.Seed += int64(i) // desynchronize per-node RTO jitter
			rp := reliab.Wrap(provider, rcfg)
			g.reliabs = append(g.reliabs, rp)
			nic = rp
		}
		ctrl := &gridControl{grid: g, local: id}
		host := &gridHost{grid: g, local: id, copyBW: cfg.CopyBandwidth}
		engine := core.NewEngine(nic, ctrl, host)
		if cfg.Observer != nil {
			engine.SetObserver(cfg.Observer)
		}
		engine.SetContentionSampler(g)
		g.engines = append(g.engines, engine)
	}
	return g, nil
}

// Sim returns the virtual clock.
func (g *Grid) Sim() *simnet.Sim { return g.sim }

// Cluster returns the simulated hardware.
func (g *Grid) Cluster() *simnet.Cluster { return g.cluster }

// Network returns the simulated NIC fabric, for components that share the
// engines' providers (status tables, small-message groups).
func (g *Grid) Network() *simnic.Network { return g.network }

// Engine returns node i's protocol engine.
func (g *Grid) Engine(i int) *core.Engine { return g.engines[i] }

// ReliabStats sums the reliability layer's counters across every node; the
// zero value when the deployment runs without Config.Reliab.
func (g *Grid) ReliabStats() reliab.Stats {
	var total reliab.Stats
	for _, p := range g.reliabs {
		total.Add(p.Stats())
	}
	return total
}

// Nodes returns the deployment size.
func (g *Grid) Nodes() int { return len(g.engines) }

// Run drains the event queue and returns the virtual end time in seconds.
func (g *Grid) Run() float64 { return g.sim.Run() }

// RunUntil executes events up to the virtual deadline (seconds), reporting
// whether the queue drained.
func (g *Grid) RunUntil(deadline float64) bool { return g.sim.RunUntil(deadline) }

// FailNode injects a node crash (all its links break) and informs the
// surviving engines' failure detectors, as the bootstrap mesh would.
func (g *Grid) FailNode(i int) {
	id := simnet.NodeID(i)
	g.cluster.FailNode(id)
	for j, e := range g.engines {
		if j != i {
			e.NotifyFailure(rdma.NodeID(i))
		}
	}
}

// SampleContention implements core.ContentionSampler: a zero-cost census of
// the fluid model's live flows, quantified as demand/capacity pressure. The
// fabric's max-min allocation pins a used trunk at its capacity whenever any
// flow crosses it, so achieved rate carries no contention information —
// what the planner needs is how many NIC-rate flows are competing for each
// trunk, which is exactly TrunkPressure. Host pressure is the deepest flow
// queue on any NIC port, in units of "full-rate flows per port".
func (g *Grid) SampleContention() schedule.Contention {
	var c schedule.Contention
	if racks := g.cluster.Racks(); racks > 0 {
		c.TrunkUp = make([]float64, racks)
		c.TrunkDown = make([]float64, racks)
		for r := 0; r < racks; r++ {
			c.TrunkUp[r], c.TrunkDown[r] = g.cluster.TrunkPressure(r)
		}
	}
	for i := 0; i < g.cluster.Config().Nodes; i++ {
		tx, rx := g.cluster.NodePortFlows(simnet.NodeID(i))
		if f := float64(tx); f > c.HostTx {
			c.HostTx = f
		}
		if f := float64(rx); f > c.HostRx {
			c.HostRx = f
		}
	}
	return c
}

var _ core.ContentionSampler = (*Grid)(nil)

// gridControl carries control messages over the cluster's latency-only
// channel, preserving per-sender order (simultaneous events fire in
// scheduling order).
type gridControl struct {
	grid  *Grid
	local rdma.NodeID
}

var _ core.Control = (*gridControl)(nil)

// Send implements core.Control. The message rides a pooled cell; a frame
// the cluster drops hands its cell straight back.
func (c *gridControl) Send(to rdma.NodeID, m core.CtrlMsg) error {
	g := c.grid
	var d *ctrlCell
	if n := len(g.ctrlCells); n > 0 {
		d = g.ctrlCells[n-1]
		g.ctrlCells[n-1] = nil
		g.ctrlCells = g.ctrlCells[:n-1]
	} else {
		d = &ctrlCell{grid: g}
		d.run = d.deliver
	}
	d.src, d.dst, d.m = c.local, to, m
	if !g.cluster.Ctrl(simnet.NodeID(c.local), simnet.NodeID(to), d.run) {
		g.ctrlCells = append(g.ctrlCells, d)
	}
	return nil
}

// ctrlCell carries one control message in flight. run is the cell's deliver
// method, bound once, so a pooled cell schedules delivery without
// allocating.
type ctrlCell struct {
	grid     *Grid
	src, dst rdma.NodeID
	m        core.CtrlMsg
	run      func()
}

func (d *ctrlCell) deliver() {
	if h := d.grid.handlers[d.dst]; h != nil {
		h(d.src, d.m)
	}
	// Handlers send in turn, so the cell goes back to the pool only now.
	d.grid.ctrlCells = append(d.grid.ctrlCells, d)
}

// SetHandler implements core.Control.
func (c *gridControl) SetHandler(fn func(from rdma.NodeID, m core.CtrlMsg)) {
	c.grid.handlers[c.local] = fn
}

// gridHost provides virtual time and the memory-copy cost model.
type gridHost struct {
	grid   *Grid
	local  rdma.NodeID
	copyBW float64
}

var _ core.Host = (*gridHost)(nil)

// Now implements core.Host.
func (h *gridHost) Now() time.Duration { return h.grid.sim.NowDuration() }

// ChargeCopy implements core.Host. The copy overlaps the transfer (§4.2), so
// it does not occupy the protocol CPU; fn simply fires when the modelled
// memcpy would finish.
func (h *gridHost) ChargeCopy(n int, fn func()) {
	h.grid.sim.After(float64(n)/h.copyBW, fn)
}
