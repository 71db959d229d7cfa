package simnet

import "fmt"

// This file is the lossy/WAN half of the cluster model. The datacenter
// fabric the rest of the repository simulates is lossless by assumption —
// RDMC's whole design leans on RC's in-order, no-drop delivery — so the only
// failure the base cluster knows is a *broken* path: a severed link or dead
// node on which frames are gone forever. A planetary-scale deployment breaks
// that assumption twice over: paths have wildly different latencies (a
// per-region RTT matrix instead of one global Latency) and they drop or
// reorder individual frames without being down.
//
// FabricProfile overlays exactly those behaviors. "Broken" and "lossy" stay
// distinct, deterministic states with one shared decision point (frameFate):
//
//   - broken path: every frame is dropped, forever, until the link heals.
//     Bulk transfers surface OutcomeBroken after the retry timeout (NIC retry
//     exhaustion); control datagrams are silently dropped (Cluster.Ctrl).
//   - lossy path: each frame is dropped independently with the profile's
//     seeded probability. Bulk transfers surface OutcomeLost at the virtual
//     time the frame's bytes finished crossing the fabric — the drop happens
//     downstream, so sender-side bandwidth is consumed either way. Control
//     datagrams are only lossy when CtrlLossRate says so (default 0: control
//     traffic rides the reliable bootstrap mesh, not the lossy bulk path).
//
// All loss and reorder draws come from a dedicated rand.Rand seeded by the
// profile, never from the simulation's shared source, and a profile-free (or
// loss-free) configuration makes zero draws — so enabling the WAN overlay on
// one experiment cannot perturb the virtual timeline of any other, and every
// existing configuration stays byte-identical.

// FabricProfile overlays WAN path behavior on a cluster: per-path latency
// from a region RTT matrix, seeded per-frame loss, and bounded reordering.
// The zero value of every field is the lossless datacenter default, so a
// profile can enable one behavior at a time.
type FabricProfile struct {
	// Seed fixes the loss and reorder draws. It is independent of the
	// simulation seed so the WAN overlay never perturbs other consumers of
	// the simulation's random source. Zero selects 1.
	Seed int64
	// Regions assigns node i to region Regions[i]. Nil places every node in
	// region 0 (single-region: the RTT matrix degenerates to one cell).
	Regions []int
	// RTT is the region-by-region round-trip matrix in seconds; the one-way
	// latency charged to a path is RTT[a][b]/2 and the diagonal holds the
	// intra-region RTT. Nil keeps the cluster's global Latency everywhere.
	RTT [][]float64
	// LossRate is the per-frame drop probability on cross-region paths —
	// the long-haul links where loss is real.
	LossRate float64
	// IntraLossRate is the per-frame drop probability on intra-region (and
	// self) paths; usually zero, the datacenter assumption.
	IntraLossRate float64
	// CtrlLossRate is the drop probability for control datagrams (Ctrl).
	// Zero — the default — models control traffic on the reliable bootstrap
	// mesh while only the bulk data path is lossy.
	CtrlLossRate float64
	// ReorderRate is the probability a delivered frame is held back by an
	// extra propagation delay, letting frames launched after it overtake —
	// the in-order wire guarantee does not survive a multi-path WAN. Only
	// loss-tolerant endpoints observe it: break-mode queue pairs re-impose
	// post order in their reorder buffers.
	ReorderRate float64
	// ReorderSpan is the maximum extra one-way delay, in seconds, a
	// reordered frame suffers (drawn uniformly). Zero selects half the
	// path's one-way latency.
	ReorderSpan float64
}

// Validate reports a descriptive error for an unusable profile overlaying a
// cluster of the given size.
func (f *FabricProfile) Validate(nodes int) error {
	if f.Regions != nil && len(f.Regions) != nodes {
		return fmt.Errorf("simnet: fabric profile assigns %d of %d nodes to regions", len(f.Regions), nodes)
	}
	maxRegion := 0
	for i, r := range f.Regions {
		if r < 0 {
			return fmt.Errorf("simnet: fabric profile node %d has negative region %d", i, r)
		}
		if r > maxRegion {
			maxRegion = r
		}
	}
	if f.RTT != nil {
		if len(f.RTT) <= maxRegion {
			return fmt.Errorf("simnet: fabric profile RTT matrix covers %d regions, nodes use %d", len(f.RTT), maxRegion+1)
		}
		for a, row := range f.RTT {
			if len(row) != len(f.RTT) {
				return fmt.Errorf("simnet: fabric profile RTT row %d has %d cells, want %d", a, len(row), len(f.RTT))
			}
			for b, rtt := range row {
				if rtt < 0 {
					return fmt.Errorf("simnet: fabric profile RTT[%d][%d] is negative", a, b)
				}
			}
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"loss rate", f.LossRate},
		{"intra-region loss rate", f.IntraLossRate},
		{"ctrl loss rate", f.CtrlLossRate},
		{"reorder rate", f.ReorderRate},
	} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("simnet: fabric profile %s %g outside [0,1)", p.name, p.v)
		}
	}
	if f.ReorderSpan < 0 {
		return fmt.Errorf("simnet: fabric profile reorder span must be non-negative, got %g", f.ReorderSpan)
	}
	return nil
}

// region maps a node to its region (0 when unassigned).
func (f *FabricProfile) region(id NodeID) int {
	if f == nil || f.Regions == nil {
		return 0
	}
	return f.Regions[id]
}

// Outcome classifies how one frame's crossing of the fabric ended. It is the
// three-state refinement of Transfer's broken bool that loss-tolerant
// transports consume (TransferFrame).
type Outcome int

// Frame outcomes.
const (
	// OutcomeDelivered: the frame arrived intact.
	OutcomeDelivered Outcome = iota
	// OutcomeLost: the frame was dropped by a lossy path. The path itself is
	// healthy — the next frame routes normally.
	OutcomeLost
	// OutcomeBroken: the path is severed (broken link or failed node); the
	// connection is gone, not just one frame.
	OutcomeBroken
)

func (o Outcome) String() string {
	switch o {
	case OutcomeDelivered:
		return "delivered"
	case OutcomeLost:
		return "lost"
	case OutcomeBroken:
		return "broken"
	default:
		return "unknown"
	}
}

// frameFate is the single decision point for what the fabric does to one
// frame or datagram on the directed path src→dst: broken paths swallow
// everything, lossy paths drop independently per frame with probability p
// (drawn from the profile's dedicated source), healthy paths deliver. Both
// Transfer and Ctrl route through it, so "broken" and "lossy" cannot drift
// into different semantics per call site.
func (c *Cluster) frameFate(src, dst NodeID, p float64) Outcome {
	if c.pairBroken(src, dst) {
		return OutcomeBroken
	}
	if p > 0 && c.lossRng.Float64() < p {
		return OutcomeLost
	}
	return OutcomeDelivered
}

// pathLatency is the one-way latency charged to the directed path src→dst:
// half the region RTT under a profile with a matrix, the global Latency
// otherwise.
func (c *Cluster) pathLatency(src, dst NodeID) float64 {
	f := c.cfg.Fabric
	if f == nil || f.RTT == nil {
		return c.cfg.Latency
	}
	return f.RTT[f.region(src)][f.region(dst)] / 2
}

// pathLoss is the per-frame drop probability for bulk data on src→dst.
func (c *Cluster) pathLoss(src, dst NodeID) float64 {
	f := c.cfg.Fabric
	if f == nil {
		return 0
	}
	if f.region(src) == f.region(dst) {
		return f.IntraLossRate
	}
	return f.LossRate
}

// ctrlLoss is the drop probability for control datagrams on src→dst.
func (c *Cluster) ctrlLoss(src, dst NodeID) float64 {
	f := c.cfg.Fabric
	if f == nil {
		return 0
	}
	_ = src
	_ = dst
	return f.CtrlLossRate
}

// reorderDelay draws the extra propagation delay for one delivered frame on
// src→dst: zero for most frames, a uniform draw up to the profile's span for
// the ReorderRate fraction that took the long path.
func (c *Cluster) reorderDelay(src, dst NodeID) float64 {
	f := c.cfg.Fabric
	if f == nil || f.ReorderRate <= 0 {
		return 0
	}
	if c.lossRng.Float64() >= f.ReorderRate {
		return 0
	}
	span := f.ReorderSpan
	if span == 0 {
		span = c.pathLatency(src, dst) / 2
	}
	return c.lossRng.Float64() * span
}

// TransferFrame moves size bytes from src to dst with loss-tolerant
// semantics: onDone fires with OutcomeDelivered at arrival time, with
// OutcomeLost at the virtual time a lossy path finished carrying (and then
// dropped) the frame, or with OutcomeBroken after the retry timeout when the
// path is severed. This is the wire a selective-retransmit transport builds
// on; break-semantics callers use Transfer, which maps loss to breakage as
// RC retry exhaustion would.
func (c *Cluster) TransferFrame(src, dst NodeID, size float64, onDone func(Outcome)) {
	c.Frame(src, dst, size, true, onDone)
}

// Frame is the transfer under Transfer (tolerant=false: a lossy drop is NIC
// retry exhaustion, surfaced as OutcomeBroken after the retry timeout) and
// TransferFrame (tolerant=true: a lossy drop surfaces as OutcomeLost without
// condemning the connection). Callers that keep one bound onDone per frame
// call it directly: the whole transfer is then a single Flow allocation. All
// random draws happen at call time, in a fixed order (loss, then reorder),
// from the profile's dedicated source — the determinism contract.
func (c *Cluster) Frame(src, dst NodeID, size float64, tolerant bool, onDone func(Outcome)) {
	fl := newFlow(c.sim, size)
	fl.cluster, fl.src, fl.dst, fl.notify = c, src, dst, onDone
	switch c.frameFate(src, dst, c.pathLoss(src, dst)) {
	case OutcomeBroken:
		fl.notifyAfter(c.cfg.RetryTimeout, OutcomeBroken)
		return
	case OutcomeLost:
		if !tolerant {
			// Break semantics: the NIC's hardware retries cannot recover on
			// a fabric modelled without them, so a drop is retry exhaustion.
			fl.notifyAfter(c.cfg.RetryTimeout, OutcomeBroken)
			return
		}
		// The frame crosses the fabric and is dropped downstream: charge
		// propagation and bandwidth, then report the loss at the time the
		// last byte would have landed.
		c.launch(fl, 0, OutcomeLost)
		return
	}
	c.launch(fl, c.reorderDelay(src, dst), OutcomeDelivered)
}

// launch charges the path latency; start then re-checks for breakage (the
// path may have been severed while the frame was in the NIC pipeline) and
// runs the frame as a fabric flow. The transfer reports result extra
// seconds after the flow completes, or OutcomeBroken (after the retry
// timeout) if the path is severed before or during the flow.
//
// Each phase moves the flow's one event where a fire-and-forget After used
// to be queued, taking its sequence number at the same point, so the
// event tie order is that of a closure per phase.
func (c *Cluster) launch(fl *Flow, extra float64, result Outcome) {
	fl.extra, fl.result = extra, result
	if fl.src == fl.dst {
		fl.notifyAfter(c.pathLatency(fl.src, fl.dst)+extra, result)
		return
	}
	fl.path = c.appendPath(fl.pathBuf[:0], fl.src, fl.dst)
	fl.phase = phaseLaunch
	fl.ev.Schedule(c.sim.now + c.pathLatency(fl.src, fl.dst))
}

// start ends the launch phase.
func (c *Cluster) start(fl *Flow) {
	if c.pairBroken(fl.src, fl.dst) {
		fl.notifyAfter(c.cfg.RetryTimeout, OutcomeBroken)
		return
	}
	c.fabric.start(fl)
}

// landed ends the fabric phase: the last byte arrived.
func (c *Cluster) landed(fl *Flow) {
	if fl.extra > 0 {
		fl.notifyAfter(fl.extra, fl.result)
		return
	}
	fl.notify(fl.result)
}

// notifyAfter reports o to the transfer's callback d seconds from now.
func (fl *Flow) notifyAfter(d float64, o Outcome) {
	fl.phase, fl.result = phaseNotify, o
	fl.ev.Schedule(fl.ev.sim.now + d)
}
