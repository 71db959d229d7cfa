package main

import (
	"fmt"
	"net"
	"time"

	"rdmc"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/reliab"
	"rdmc/internal/rdma/shmnic"
	"rdmc/internal/rdma/tcpnic"
)

// The layer cost ladder moves blocks of one size through successively
// higher layers and reports ns per block for each rung:
//
//	memcpy → raw shmnic QP → engine over shmnic
//	       → raw tcpnic QP → engine over tcpnic
//	reliab over shmnic, reliab over tcpnic
//
// Raw and reliab rungs keep ladderWindow blocks in flight on one queue pair,
// the engine's default send window; engine rungs send ladderMsgBlocks-block
// messages through a 2-member group, closed loop.
const (
	ladderWindow    = 4
	ladderMsgBlocks = 16
	ladderBatch     = 32 << 20 // bytes per timed batch
	ladderBatches   = 5        // timed batches per rung; the rung reports their median
)

// ladder is one run of every rung at one block size, ns per block.
type ladder struct {
	block                    int
	memcpy, shmQP, shmEngine float64
	tcpQP, tcpEngine         float64
	reliabShm, reliabTCP     float64
}

func runLadder(block int) (*ladder, error) {
	l := &ladder{block: block}
	var err error
	l.memcpy = memcpyRung(block)
	if l.shmQP, err = qpRung(shmPair, block); err != nil {
		return nil, fmt.Errorf("shmnic rung: %w", err)
	}
	if l.shmEngine, err = engineRung(block, rdmc.WithIntraHost()); err != nil {
		return nil, fmt.Errorf("engine over shmnic rung: %w", err)
	}
	if l.tcpQP, err = qpRung(tcpPair, block); err != nil {
		return nil, fmt.Errorf("tcpnic rung: %w", err)
	}
	if l.tcpEngine, err = engineRung(block); err != nil {
		return nil, fmt.Errorf("engine over tcpnic rung: %w", err)
	}
	if l.reliabShm, err = qpRung(reliabPair(shmPair, block), block); err != nil {
		return nil, fmt.Errorf("reliab over shmnic rung: %w", err)
	}
	if l.reliabTCP, err = qpRung(reliabPair(tcpPair, block), block); err != nil {
		return nil, fmt.Errorf("reliab over tcpnic rung: %w", err)
	}
	return l, nil
}

func (l *ladder) fill(r *report) {
	base := fmt.Sprintf("median of %d batches of %d-byte blocks", ladderBatches, l.block)
	r.set("memcpy.ns_per_block", "ns", l.memcpy, "%s", base)
	r.set("shmnic.qp_ns_per_block", "ns", l.shmQP, "%s", base)
	r.set("shmnic.qp_ratio", "ratio", ratio(l.shmQP, l.memcpy), "shmnic QP over memcpy")
	r.set("core.shm_ns_per_block", "ns", l.shmEngine, "%s", base)
	r.set("core.shm_ratio", "ratio", ratio(l.shmEngine, l.shmQP), "engine over shmnic QP")
	r.set("tcpnic.qp_ns_per_block", "ns", l.tcpQP, "%s", base)
	r.set("tcpnic.qp_ratio", "ratio", ratio(l.tcpQP, l.memcpy), "tcpnic QP over memcpy")
	r.set("core.tcp_ns_per_block", "ns", l.tcpEngine, "%s", base)
	r.set("core.tcp_ratio", "ratio", ratio(l.tcpEngine, l.tcpQP), "engine over tcpnic QP")
	r.set("reliab.shm_ns_per_block", "ns", l.reliabShm, "%s", base)
	r.set("reliab.shm_ratio", "ratio", ratio(l.reliabShm, l.shmQP), "reliab over shmnic QP")
	r.set("reliab.tcp_ns_per_block", "ns", l.reliabTCP, "%s", base)
	r.set("reliab.tcp_ratio", "ratio", ratio(l.reliabTCP, l.tcpQP), "reliab over tcpnic QP")
}

// batchBlocks is how many blocks one timed batch moves.
func batchBlocks(block int) int { return max(ladderBatch/block, 4*ladderWindow) }

// timeBatches runs one untimed warm-up batch and ladderBatches timed ones
// and returns the median ns per block.
func timeBatches(blocks int, batch func() error) (float64, error) {
	if err := batch(); err != nil {
		return 0, err
	}
	var per []float64
	for i := 0; i < ladderBatches; i++ {
		t := time.Now()
		if err := batch(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(blocks))
	}
	return median(per), nil
}

// sink keeps the copies observable so the compiler cannot drop them.
var sink byte

func memcpyRung(block int) float64 {
	src := make([]byte, block)
	dst := make([][]byte, ladderWindow)
	for i := range dst {
		dst[i] = make([]byte, block)
	}
	n := batchBlocks(block)
	ns, _ := timeBatches(n, func() error { // the batch cannot fail
		for i := 0; i < n; i++ {
			copy(dst[i%ladderWindow], src)
		}
		sink ^= dst[n%ladderWindow][block/2]
		return nil
	})
	return ns
}

// pairFunc builds two connected-to-be providers and their teardown.
type pairFunc func() (a, b rdma.Provider, closeAll func(), err error)

func shmPair() (rdma.Provider, rdma.Provider, func(), error) {
	ex := shmnic.NewExchange()
	a, err := shmnic.New(shmnic.Config{NodeID: 0, Exchange: ex})
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := shmnic.New(shmnic.Config{NodeID: 1, Exchange: ex})
	if err != nil {
		_ = a.Close()
		return nil, nil, nil, err
	}
	return a, b, func() { _ = a.Close(); _ = b.Close() }, nil
}

func tcpPair() (rdma.Provider, rdma.Provider, func(), error) {
	lns := make([]net.Listener, 2)
	addrs := make(map[rdma.NodeID]string)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, nil, nil, err
		}
		lns[i] = ln
		addrs[rdma.NodeID(i)] = ln.Addr().String()
	}
	a, err := tcpnic.New(tcpnic.Config{NodeID: 0, Listener: lns[0], Addrs: addrs})
	if err != nil {
		_ = lns[0].Close()
		_ = lns[1].Close()
		return nil, nil, nil, err
	}
	b, err := tcpnic.New(tcpnic.Config{NodeID: 1, Listener: lns[1], Addrs: addrs})
	if err != nil {
		_ = a.Close()
		_ = lns[1].Close()
		return nil, nil, nil, err
	}
	return a, b, func() { _ = a.Close(); _ = b.Close() }, nil
}

// reliabPair wraps both providers of inner in the reliability layer.
func reliabPair(inner pairFunc, block int) pairFunc {
	return func() (rdma.Provider, rdma.Provider, func(), error) {
		a, b, closeAll, err := inner()
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := reliab.Config{MaxPayload: block}
		return reliab.Wrap(a, cfg), reliab.Wrap(b, cfg), closeAll, nil
	}
}

// qpRung times post→complete over one queue pair from a to b. The sender
// posts a block only when it holds both a send slot (freed by its send
// completion) and a receive credit (freed when b's receive completes and
// is reposted), so no block ever arrives without a posted receive.
func qpRung(pair pairFunc, block int) (float64, error) {
	a, b, closeAll, err := pair()
	if err != nil {
		return 0, err
	}
	defer closeAll()
	sendSlots := make(chan struct{}, ladderWindow)
	credits := make(chan struct{}, ladderWindow)
	fail := make(chan error, 1)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	// Teardown completes the posted receives as broken; by then every
	// slot is home, so release must not block the dispatcher.
	release := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	recvBufs := make([][]byte, ladderWindow)
	for i := range recvBufs {
		recvBufs[i] = make([]byte, block)
	}
	var qb rdma.QueuePair
	a.SetHandler(func(c rdma.Completion) {
		if c.Status != rdma.StatusOK {
			report(fmt.Errorf("send completion %v", c.Status))
		}
		release(sendSlots)
	})
	b.SetHandler(func(c rdma.Completion) {
		if c.Status != rdma.StatusOK || c.Bytes != block {
			report(fmt.Errorf("receive completion %v, %d bytes", c.Status, c.Bytes))
		}
		if err := qb.PostRecv(rdma.MakeBuffer(recvBufs[c.WRID]), c.WRID); err != nil {
			report(err)
		}
		release(credits)
	})
	const token = 7
	qa, err := a.Connect(b.NodeID(), token)
	if err != nil {
		return 0, err
	}
	if qb, err = b.Connect(a.NodeID(), token); err != nil {
		return 0, err
	}
	for i := range recvBufs {
		if err := qb.PostRecv(rdma.MakeBuffer(recvBufs[i]), uint64(i)); err != nil {
			return 0, err
		}
		sendSlots <- struct{}{}
		credits <- struct{}{}
	}
	src := rdma.MakeBuffer(make([]byte, block))
	n := batchBlocks(block)
	watchdog := time.NewTimer(time.Minute)
	defer watchdog.Stop()
	take := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case err := <-fail:
			return err
		case <-watchdog.C:
			return fmt.Errorf("queue pair stalled")
		}
	}
	return timeBatches(n, func() error {
		for i := 0; i < n; i++ {
			if err := take(sendSlots); err != nil {
				return err
			}
			if err := take(credits); err != nil {
				return err
			}
			if err := qa.PostSend(src, uint32(i), uint64(i)); err != nil {
				return err
			}
		}
		// Drain: every send completed and every receive reposted.
		for i := 0; i < ladderWindow; i++ {
			if err := take(sendSlots); err != nil {
				return err
			}
			if err := take(credits); err != nil {
				return err
			}
		}
		for i := 0; i < ladderWindow; i++ {
			sendSlots <- struct{}{}
			credits <- struct{}{}
		}
		return nil
	})
}

// engineRung times whole messages through a 2-member group on a local
// cluster and divides by the blocks moved.
func engineRung(block int, opts ...rdmc.ClusterOption) (float64, error) {
	nodes, err := rdmc.NewLocalCluster(2, opts...)
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close() // teardown after the measurement
		}
	}()
	size := block * ladderMsgBlocks
	delivered := make(chan struct{}, 1)
	failed := make(chan error, 2)
	gcfg := rdmc.GroupConfig{BlockSize: block}
	onFail := func(err error) {
		select {
		case failed <- err:
		default:
		}
	}
	root, err := nodes[0].CreateGroup(1, []int{0, 1}, gcfg, rdmc.Callbacks{Failure: onFail})
	if err != nil {
		return 0, err
	}
	recvBuf := make([]byte, size)
	_, err = nodes[1].CreateGroup(1, []int{0, 1}, gcfg, rdmc.Callbacks{
		Incoming:   func(int) []byte { return recvBuf },
		Completion: func(int, []byte, int) { delivered <- struct{}{} },
		Failure:    onFail,
	})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	msgs := max(batchBlocks(block)/ladderMsgBlocks, 2)
	watchdog := time.NewTimer(time.Minute)
	defer watchdog.Stop()
	return timeBatches(msgs*ladderMsgBlocks, func() error {
		for i := 0; i < msgs; i++ {
			if err := root.Send(payload); err != nil {
				return err
			}
			select {
			case <-delivered:
			case err := <-failed:
				return err
			case <-watchdog.C:
				return fmt.Errorf("message stalled")
			}
		}
		return nil
	})
}
