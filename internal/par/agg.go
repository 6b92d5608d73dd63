package par

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the runtime half of the two-level exchange (the schedule
// transform lives in comm.Aggregate): PEs are grouped onto nodes, and
// all same-source-node traffic bound for one destination node travels as
// a single fused block. On this shared-memory emulation the fused send
// is a copy phase — the leader PE of each node gathers its members'
// outbound buffers into a preallocated per-node-pair staging area — and
// the destination PEs then accumulate their slices of the staging area
// in place, which is the scatter leg. Payload values are copied, never
// recombined, and every PE accumulates in exactly the flat kernel's
// neighbor order, so the aggregated SMVP is bit-identical to the flat
// one. All staging buffers and copy lists are built when aggregation is
// enabled; the steady-state kernel stays allocation-free.

// aggCopy is one gather copy: a leader moves a member PE's completed
// send buffer into its slot of an inter-node staging buffer.
type aggCopy struct {
	dst, src []float64
}

// aggState is the installed aggregation plan. It is immutable after
// construction; the runtime swaps the whole pointer under the dispatch
// mutex, so PEs read a consistent plan for the duration of a kernel.
type aggState struct {
	nodeOf   []int32
	leader   []int32 // per node: its lowest-numbered PE
	numNodes int

	// gather[pe] is the copy list PE pe executes during the fused-send
	// phase; only leaders have entries.
	gather [][]aggCopy
	// recv[pe][k] is the buffer PE pe accumulates from for neighbor
	// index k: the neighbor's own send buffer when the neighbor is on
	// the same node, or its slot in the staging buffer when remote.
	recv [][][]float64
	// fusedOut[pe] / stagedBytes[pe] are the per-kernel metric deltas a
	// leader contributes: fused inter-node blocks sent by its node, and
	// bytes it copied into staging.
	fusedOut    []int64
	stagedBytes []int64
}

// SetAggregation installs (or with nil removes) a two-level exchange
// plan on the Dist: nodeOf maps each PE to its node id (for example
// comm.ContiguousNodes(size)), and from it the runtime derives leaders,
// staging buffers, and copy lists. The aggregated SMVP produces results
// bit-identical to the flat one — values are copied unmodified and
// accumulated in the same order — at the cost of one extra intra-kernel
// barrier and the staging copies. Construction allocates; the kernels
// that follow do not. Like InjectFaults, the swap is excluded from
// in-flight kernels by the dispatch mutex.
//
// Only the phased SMVP (and through it Operator/CG) honors the plan:
// SMVPOverlapped hides communication under interior compute — a
// different latency-tolerance strategy than fusing blocks — and
// DistSim's integrator keeps the flat exchange; both are documented in
// docs/COMMUNICATION.md.
func (d *Dist) SetAggregation(nodeOf func(pe int32) int32) error {
	if nodeOf == nil {
		return d.rt.installAgg(nil)
	}
	a, err := d.rt.buildAgg(nodeOf)
	if err != nil {
		return err
	}
	return d.rt.installAgg(a)
}

// AggregationStats reports the installed plan's fused inter-node block
// count and staged (gather-copied) bytes per kernel, and whether
// aggregation is enabled at all.
func (d *Dist) AggregationStats() (fusedBlocks, stagedBytes int64, enabled bool) {
	d.rt.dispatch.Lock()
	a := d.rt.agg
	d.rt.dispatch.Unlock()
	if a == nil {
		return 0, 0, false
	}
	for pe := range a.fusedOut {
		fusedBlocks += a.fusedOut[pe]
		stagedBytes += a.stagedBytes[pe]
	}
	return fusedBlocks, stagedBytes, true
}

func (rt *peRuntime) installAgg(a *aggState) error {
	rt.dispatch.Lock()
	defer rt.dispatch.Unlock()
	if err := rt.usable(); err != nil {
		return err
	}
	rt.agg = a
	return nil
}

// buildAgg derives the full aggregation plan from the node mapping and
// the runtime's immutable exchange topology. It holds no lock: it reads
// only topology and the workspace send-buffer headers, both fixed at
// construction.
func (rt *peRuntime) buildAgg(nodeOf func(pe int32) int32) (*aggState, error) {
	a := &aggState{
		nodeOf:      make([]int32, rt.p),
		gather:      make([][]aggCopy, rt.p),
		recv:        make([][][]float64, rt.p),
		fusedOut:    make([]int64, rt.p),
		stagedBytes: make([]int64, rt.p),
	}
	maxNode := int32(-1)
	for pe := 0; pe < rt.p; pe++ {
		n := nodeOf(int32(pe))
		if n < 0 {
			return nil, fmt.Errorf("par: nodeOf(%d) = %d, want >= 0", pe, n)
		}
		a.nodeOf[pe] = n
		if n > maxNode {
			maxNode = n
		}
	}
	a.numNodes = int(maxNode) + 1
	a.leader = make([]int32, a.numNodes)
	for n := range a.leader {
		a.leader[n] = -1
	}
	for pe := rt.p - 1; pe >= 0; pe-- {
		a.leader[a.nodeOf[pe]] = int32(pe)
	}

	// Staging volume per ordered node pair: every word a PE sends to a
	// neighbor on another node crosses exactly one pair.
	type pair struct{ src, dst int32 }
	vol := make(map[pair]int)
	for pe := 0; pe < rt.p; pe++ {
		for k, nbr := range rt.neighbors[pe] {
			if a.nodeOf[pe] == a.nodeOf[nbr] {
				continue
			}
			vol[pair{a.nodeOf[pe], a.nodeOf[nbr]}] += len(rt.ws[pe].send[k])
		}
	}
	staging := make(map[pair][]float64, len(vol))
	for pr, words := range vol {
		staging[pr] = make([]float64, 0, words)
	}

	// Slot assignment: scan (srcPE ascending, neighbor index ascending)
	// so the layout is deterministic, appending each member buffer's
	// slot to its pair's staging buffer. The same scan emits the
	// source-node leader's gather copy and the destination PE's recv
	// slice, so the two sides agree on offsets by construction.
	for pe := 0; pe < rt.p; pe++ {
		a.recv[pe] = make([][]float64, len(rt.neighbors[pe]))
	}
	for pe := 0; pe < rt.p; pe++ {
		ws := &rt.ws[pe]
		for k, nbr := range rt.neighbors[pe] {
			if a.nodeOf[pe] == a.nodeOf[nbr] {
				// Same node: the destination keeps reading the source's
				// send buffer in place, exactly as the flat kernel does.
				a.recv[nbr][ws.rev[k]] = ws.send[k]
				continue
			}
			pr := pair{a.nodeOf[pe], a.nodeOf[nbr]}
			buf := staging[pr]
			slot := buf[len(buf) : len(buf)+len(ws.send[k])]
			staging[pr] = buf[:len(buf)+len(ws.send[k])]
			lead := a.leader[pr.src]
			a.gather[lead] = append(a.gather[lead], aggCopy{dst: slot, src: ws.send[k]})
			a.stagedBytes[lead] += 8 * int64(len(slot))
			a.recv[nbr][ws.rev[k]] = slot
		}
	}
	for pr := range vol {
		a.fusedOut[a.leader[pr.src]]++
	}
	return a, nil
}

// aggExchange is the fused-send phase the phased kernel runs between
// its two intra-kernel barriers when aggregation is enabled: the node
// leaders execute their gather copy lists, moving every member's
// completed send buffer into the inter-node staging areas. Non-leader
// PEs have empty lists and just cross the barriers. Timed into Comm —
// these copies are the price of the block reduction.
func (rt *peRuntime) aggExchange(pe int, a *aggState) {
	sp := obs.StartSpanPE("exchange", "par.smvp.gather", pe)
	start := time.Now()
	for _, op := range a.gather[pe] {
		copy(op.dst, op.src)
	}
	rt.tm.Comm[pe] += time.Since(start)
	rt.met.aggBlocks.Add(a.fusedOut[pe])
	rt.met.aggStagedBytes.Add(a.stagedBytes[pe])
	sp.End()
}
