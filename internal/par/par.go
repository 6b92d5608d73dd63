// Package par executes the parallel SMVP for real, on goroutine "PEs",
// following exactly the structure the paper models: a computation phase
// (each PE multiplies its local stiffness matrix by its local vector)
// separated by barriers from a communication phase (PEs sharing mesh
// nodes exchange and sum their partial nodal results). It provides the
// ground truth against which the closed-form model and the discrete
// simulator are validated, and measures the achieved per-flop time T_f
// on the host.
package par

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// Dist is a distributed SMVP operator: per-PE local stiffness matrices
// assembled from each subdomain's own elements (so the global K is the
// sum of the scattered locals), plus the shared-node exchange lists.
type Dist struct {
	P           int
	GlobalNodes int
	// Nodes[i] lists the global ids of the nodes resident on PE i,
	// sorted ascending. Local index l on PE i refers to Nodes[i][l].
	Nodes [][]int32
	// K[i] is PE i's local stiffness in local numbering, holding only
	// the contributions of PE i's own elements.
	K []*sparse.BCSR
	// Neighbors[i] lists the PEs that share at least one node with i.
	Neighbors [][]int32
	// Shared[i][k] lists the local indices (into Nodes[i]) of the nodes
	// PE i shares with Neighbors[i][k], ordered by global id — the same
	// order both endpoints use, so exchanged buffers line up.
	Shared [][][]int32
	// Owner[v] is the PE responsible for writing node v's result back
	// to a global vector (the lowest-numbered PE of its residency set).
	Owner []int32
	// Boundary[i] lists the local indices of PE i's shared nodes (rows
	// that must be computed before the exchange can begin); Interior[i]
	// is the complement. Both are sorted.
	Boundary [][]int32
	Interior [][]int32

	// rt is the persistent-PE runtime: the long-lived goroutine PEs,
	// their preallocated workspaces, and the operator's telemetry
	// handles (resolved once so the SMVP hot path performs only atomic
	// adds, which no-op while obs is disabled). See runtime.go.
	rt *peRuntime
}

// distMetrics are the telemetry handles of one distributed operator.
// ExchBytes follows the partition profile's C accounting: bytes both
// sent and received by the PE, i.e. 8·C[i] per SMVP invocation.
type distMetrics struct {
	smvps     *obs.Counter
	exchMsgs  *obs.Counter
	msgBytes  *obs.Histogram
	exchBytes []*obs.Counter
	// Aggregated-exchange counters: fused inter-node blocks sent and
	// bytes gather-copied into staging (zero while aggregation is off).
	aggBlocks      *obs.Counter
	aggStagedBytes *obs.Counter
	// Per-PE phase accumulators and merged duration histograms: the
	// substrate obs/analyze reads for λ, stragglers, and Eq.(2) drift.
	// One observation per PE per kernel invocation, in nanoseconds.
	phaseCompute   *obs.PEAccum
	phaseExchange  *obs.PEAccum
	phaseUpdate    *obs.PEAccum
	phaseComputeH  *obs.Histogram
	phaseExchangeH *obs.Histogram
	phaseUpdateH   *obs.Histogram
}

func newDistMetrics(p int) distMetrics {
	m := distMetrics{
		smvps:          obs.GetCounter("par.smvp.calls"),
		exchMsgs:       obs.GetCounter("par.exchange.msgs"),
		msgBytes:       obs.GetHistogram("par.exchange.msg_bytes"),
		exchBytes:      make([]*obs.Counter, p),
		aggBlocks:      obs.GetCounter("par.exchange.agg.fused_blocks"),
		aggStagedBytes: obs.GetCounter("par.exchange.agg.staged_bytes"),
		phaseCompute:   obs.GetPEAccum("par.phase.compute.ns", p),
		phaseExchange:  obs.GetPEAccum("par.phase.exchange.ns", p),
		phaseUpdate:    obs.GetPEAccum("par.phase.update.ns", p),
		phaseComputeH:  obs.GetHistogram("par.phase.compute.hist_ns"),
		phaseExchangeH: obs.GetHistogram("par.phase.exchange.hist_ns"),
		phaseUpdateH:   obs.GetHistogram("par.phase.update.hist_ns"),
	}
	for i := 0; i < p; i++ {
		m.exchBytes[i] = obs.GetCounter(fmt.Sprintf("par.exchange.bytes.pe%d", i))
	}
	return m
}

// Phase observation helpers: each records one PE's phase duration into
// the per-PE accumulator (for λ/straggler/drift analysis), the merged
// histogram (for percentiles), and the flight recorder ring (for
// post-mortems). All three sinks are allocation-free, so these run on
// the kernel hot path with TestSMVPZeroAlloc still at 0 allocs/op.

func (m *distMetrics) observeCompute(pe int, iter int64, d time.Duration) {
	m.phaseCompute.Observe(pe, int64(d))
	m.phaseComputeH.Observe(int64(d))
	obs.RecordFlight(obs.FlightSpan, "par.phase.compute", pe, iter, d)
}

func (m *distMetrics) observeExchange(pe int, iter int64, d time.Duration) {
	m.phaseExchange.Observe(pe, int64(d))
	m.phaseExchangeH.Observe(int64(d))
	obs.RecordFlight(obs.FlightSpan, "par.phase.exchange", pe, iter, d)
}

func (m *distMetrics) observeUpdate(pe int, iter int64, d time.Duration) {
	m.phaseUpdate.Observe(pe, int64(d))
	m.phaseUpdateH.Observe(int64(d))
	obs.RecordFlight(obs.FlightSpan, "par.phase.update", pe, iter, d)
}

// bytesPerSharedNode is the wire size of one shared node's partial sum:
// three float64 words.
const bytesPerSharedNode = 8 * partition.WordsPerNode

// NewDist builds the distributed operator from a mesh, a material
// model, and a partition with its analysis profile.
func NewDist(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, pr *partition.Profile) (*Dist, error) {
	if pr.P != pt.P {
		return nil, fmt.Errorf("par: profile has %d PEs, partition %d", pr.P, pt.P)
	}
	p := pt.P
	d := &Dist{
		P:           p,
		GlobalNodes: m.NumNodes(),
		Nodes:       pr.NodesOnPE,
		K:           make([]*sparse.BCSR, p),
		Neighbors:   make([][]int32, p),
		Shared:      make([][][]int32, p),
		Owner:       make([]int32, m.NumNodes()),
	}
	for v, pes := range pr.NodePEs {
		if len(pes) == 0 {
			return nil, fmt.Errorf("par: node %d resides nowhere", v)
		}
		d.Owner[v] = pes[0]
	}

	// Global-to-local maps.
	g2l := make([]map[int32]int32, p)
	for i := 0; i < p; i++ {
		g2l[i] = make(map[int32]int32, len(d.Nodes[i]))
		for l, g := range d.Nodes[i] {
			g2l[i][g] = int32(l)
		}
	}

	// Elements per PE, then local structure and assembly.
	elems := make([][]int32, p)
	for e, pe := range pt.ElemPE {
		elems[pe] = append(elems[pe], int32(e))
	}
	for i := 0; i < p; i++ {
		// Local edge set from this PE's elements.
		seen := make(map[uint64]struct{})
		var edges [][2]int32
		for _, e := range elems[i] {
			t := m.Tets[e]
			for a := 0; a < 4; a++ {
				for b := a + 1; b < 4; b++ {
					la, lb := g2l[i][t[a]], g2l[i][t[b]]
					if la > lb {
						la, lb = lb, la
					}
					key := uint64(la)<<32 | uint64(lb)
					if _, ok := seen[key]; ok {
						continue
					}
					seen[key] = struct{}{}
					edges = append(edges, [2]int32{la, lb})
				}
			}
		}
		k := sparse.NewBCSRStructure(len(d.Nodes[i]), edges)
		for _, e := range elems[i] {
			t := m.Tets[e]
			var v [4]geom.Vec3
			for a := 0; a < 4; a++ {
				v[a] = m.Coords[t[a]]
			}
			lambda, mu, _ := mat.Elastic(m.Centroid(int(e)))
			blocks, _, ok := fem.ElementStiffness(v, lambda, mu)
			if !ok {
				return nil, fmt.Errorf("par: degenerate element %d", e)
			}
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					k.AddBlock(g2l[i][t[a]], g2l[i][t[b]], &blocks[a][b])
				}
			}
		}
		d.K[i] = k
	}

	// Exchange lists from the residency sets: for every node on 2+ PEs,
	// record it under each unordered PE pair. Node ids ascend during the
	// scan, so each per-pair list is automatically in global-id order.
	type pair struct{ a, b int32 }
	sharedByPair := make(map[pair][]int32)
	for v, pes := range pr.NodePEs {
		for x := 0; x < len(pes); x++ {
			for y := x + 1; y < len(pes); y++ {
				pr := pair{pes[x], pes[y]}
				sharedByPair[pr] = append(sharedByPair[pr], int32(v))
			}
		}
	}
	nbrSet := make([]map[int32][]int32, p) // neighbor -> shared globals
	for i := range nbrSet {
		nbrSet[i] = make(map[int32][]int32)
	}
	for pr, nodes := range sharedByPair {
		nbrSet[pr.a][pr.b] = nodes
		nbrSet[pr.b][pr.a] = nodes
	}
	for i := 0; i < p; i++ {
		for nbr := range nbrSet[i] {
			d.Neighbors[i] = append(d.Neighbors[i], nbr)
		}
		sort.Slice(d.Neighbors[i], func(a, b int) bool { return d.Neighbors[i][a] < d.Neighbors[i][b] })
		d.Shared[i] = make([][]int32, len(d.Neighbors[i]))
		for k, nbr := range d.Neighbors[i] {
			globals := nbrSet[i][nbr]
			locals := make([]int32, len(globals))
			for s, g := range globals {
				locals[s] = g2l[i][g]
			}
			d.Shared[i][k] = locals
		}
	}

	// Boundary/interior row split for the overlapped kernel.
	d.Boundary = make([][]int32, p)
	d.Interior = make([][]int32, p)
	for i := 0; i < p; i++ {
		isBoundary := make([]bool, len(d.Nodes[i]))
		for _, locals := range d.Shared[i] {
			for _, l := range locals {
				isBoundary[l] = true
			}
		}
		for l := range d.Nodes[i] {
			if isBoundary[l] {
				d.Boundary[i] = append(d.Boundary[i], int32(l))
			} else {
				d.Interior[i] = append(d.Interior[i], int32(l))
			}
		}
	}
	d.rt = newPERuntime(d)
	// Safety net for callers that drop a Dist without Close: the PE
	// goroutines reference only d.rt, never d itself, so d can become
	// unreachable and the finalizer then parks the runtime. Explicit
	// Close remains the deterministic path.
	runtime.SetFinalizer(d, (*Dist).Close)
	return d, nil
}

// Close shuts down the persistent PE goroutines. It is idempotent and
// safe to call concurrently with kernels (in-flight calls finish;
// subsequent calls return an error). A Dist that is never closed holds
// P parked goroutines and its workspaces until it is garbage collected.
func (d *Dist) Close() { d.rt.close() }

// InjectFaults arms the Dist's exchange-boundary fault injector with
// plan, or disarms it when plan is nil. The returned Injector reports
// injected-fault counts; it is nil when disarming. Arming is excluded
// from in-flight kernels by the dispatch mutex, and a disarmed Dist
// pays only a nil check per hook site — the steady-state kernels stay
// allocation- and spawn-free (see docs/RELIABILITY.md for the fault
// model and docs/PERFORMANCE.md for the hot-path rules).
//
// Plan iterations count kernel dispatches since arming: every SMVP,
// SMVPOverlapped, or DistSim time step advances the count by one. A
// plan whose panic event fires poisons the Dist permanently: the
// faulted kernel returns an error wrapping ErrPoisoned and every later
// kernel fails fast with the same error.
func (d *Dist) InjectFaults(plan *fault.Plan) (*fault.Injector, error) {
	if plan == nil {
		if err := d.rt.arm(nil); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if err := plan.Validate(d.P); err != nil {
		return nil, err
	}
	in := fault.NewInjector(plan)
	if err := d.rt.arm(in); err != nil {
		return nil, err
	}
	return in, nil
}

// Timing reports per-PE phase durations of one distributed SMVP.
type Timing struct {
	Compute []time.Duration
	Comm    []time.Duration
}

// MaxCompute returns the longest computation phase across PEs.
func (t *Timing) MaxCompute() time.Duration { return maxDur(t.Compute) }

// MaxComm returns the longest communication phase across PEs.
func (t *Timing) MaxComm() time.Duration { return maxDur(t.Comm) }

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// SMVP computes y = K·x with the distributed operator: scatter x,
// parallel local SMVPs, barrier, partial-sum exchange, gather. x and y
// are global vectors of length 3·GlobalNodes. Operator.Apply runs the
// same kernel with the owners adding the mass shift as they gather.
//
// The kernel runs on the Dist's persistent PEs against preallocated
// workspaces: in steady state it allocates nothing and spawns no
// goroutines. The returned Timing (per-PE phase durations of this
// invocation) is owned by the Dist and overwritten by the next kernel
// call — copy it if it must survive.
func (d *Dist) SMVP(y, x []float64) (*Timing, error) {
	return d.smvp(y, x, 0, nil)
}

// smvp runs the phased kernel y = K·x + σ·diag(mass)·x; a nil mass
// leaves the shift out.
func (d *Dist) smvp(y, x []float64, sigma float64, mass []float64) (*Timing, error) {
	if len(x) != 3*d.GlobalNodes || len(y) != 3*d.GlobalNodes {
		return nil, fmt.Errorf("par: SMVP needs vectors of length %d, got %d/%d",
			3*d.GlobalNodes, len(x), len(y))
	}
	d.rt.met.smvps.Add(1)
	return d.rt.runKernel(d.rt.phasedBody, y, x, sigma, mass)
}

// phasedPE is the per-PE body of the phased SMVP: scatter and local
// multiply, post partial sums into the PE's own send buffers, cross the
// phase barrier (the synchronization point separating the computation
// phase from the exchange), read the neighbors' buffers in place and
// accumulate, then gather: each owner writes its nodes' rows of the
// global y, adding the mass shift (σ·m)·x on the way when the kernel
// carries one. Scatter and gather are untimed, as before: distribution
// of x is part of the surrounding application, which keeps x resident.
func (rt *peRuntime) phasedPE(pe int) {
	ws := &rt.ws[pe]
	nodes := rt.nodes[pe]
	x, y := rt.x, rt.y
	fi, iter := rt.fi, rt.iter
	agg := rt.agg
	for l, g := range nodes {
		ws.x[3*l] = x[3*g]
		ws.x[3*l+1] = x[3*g+1]
		ws.x[3*l+2] = x[3*g+2]
	}

	// Computation phase.
	sp := obs.StartSpanPE("compute", "par.smvp.compute", pe)
	start := time.Now()
	rt.k[pe].MulVec(ws.y, ws.x)
	rt.tm.Compute[pe] = time.Since(start)
	rt.met.observeCompute(pe, iter, rt.tm.Compute[pe])
	sp.End()

	if fi != nil {
		fi.AfterCompute(pe, iter)
	}

	// Communication phase, step 1: post partial sums for each neighbor
	// into this PE's own send buffers.
	sp = obs.StartSpanPE("exchange", "par.smvp.post", pe)
	start = time.Now()
	var sent int64
	for k, locals := range rt.shared[pe] {
		buf := ws.send[k]
		for s, l := range locals {
			buf[3*s] = ws.y[3*l]
			buf[3*s+1] = ws.y[3*l+1]
			buf[3*s+2] = ws.y[3*l+2]
		}
		if fi != nil {
			fi.CorruptSend(pe, int(rt.neighbors[pe][k]), iter, buf)
		}
		n := bytesPerSharedNode * int64(len(locals))
		sent += n
		rt.met.msgBytes.Observe(n)
	}
	rt.tm.Comm[pe] = time.Since(start)
	rt.met.exchBytes[pe].Add(sent)
	rt.met.exchMsgs.Add(int64(len(rt.shared[pe])))
	sp.End()

	// Every post must be visible before any PE reads its neighbors'
	// buffers; the barrier wait itself is not attributed to Comm (the
	// pre-runtime kernel's pool barrier was likewise uncounted). A
	// poisoned release means a peer died mid-kernel and its posts (or a
	// leader's staging copies) may still be in flight — bail out rather
	// than race on them.
	if !rt.bar.await() {
		return
	}

	// Two-level exchange: the node leaders gather their members' posted
	// buffers into the inter-node staging areas (the fused send), and a
	// second barrier makes the staging visible before anyone reads it.
	var recvBufs [][]float64
	if agg != nil {
		rt.aggExchange(pe, agg)
		if !rt.bar.await() {
			return
		}
		recvBufs = agg.recv[pe]
	}

	// Communication phase, step 2: receive and accumulate, reading the
	// neighbors' send buffers in place (rev locates the buffer destined
	// for this PE on the other side). Under aggregation the remote
	// buffers come from the staging areas instead — same values, same
	// neighbor order, so the sums are bit-identical.
	sp = obs.StartSpanPE("exchange", "par.smvp.recv", pe)
	start = time.Now()
	var recvd int64
	for k, nbr := range rt.neighbors[pe] {
		buf := rt.ws[nbr].send[ws.rev[k]]
		if recvBufs != nil {
			buf = recvBufs[k]
		}
		locals := rt.shared[pe][k]
		reps := 1
		if fi != nil {
			reps = fi.Deliver(int(nbr), pe, iter)
		}
		for ; reps > 0; reps-- {
			for s, l := range locals {
				ws.y[3*l] += buf[3*s]
				ws.y[3*l+1] += buf[3*s+1]
				ws.y[3*l+2] += buf[3*s+2]
			}
			recvd += bytesPerSharedNode * int64(len(locals))
		}
	}
	rt.tm.Comm[pe] += time.Since(start)
	rt.met.exchBytes[pe].Add(recvd)
	rt.met.observeExchange(pe, iter, rt.tm.Comm[pe])
	sp.End()

	// Gather phase: owners write their nodes' results, shifted by
	// (σ·m)·x when the kernel carries a mass diagonal. The shift reads
	// the PE's own scattered copy of x, so y = K·x + (σ·m)·x is formed
	// exactly as the serial y += (σ·m)·x pass over the finished product
	// would form it, bit for bit.
	if mass := rt.mass; mass != nil {
		sigma := rt.shift
		for l, g := range nodes {
			if rt.owner[g] != int32(pe) {
				continue
			}
			f := sigma * mass[g]
			y[3*g] = ws.y[3*l] + f*ws.x[3*l]
			y[3*g+1] = ws.y[3*l+1] + f*ws.x[3*l+1]
			y[3*g+2] = ws.y[3*l+2] + f*ws.x[3*l+2]
		}
		return
	}
	for l, g := range nodes {
		if rt.owner[g] != int32(pe) {
			continue
		}
		y[3*g] = ws.y[3*l]
		y[3*g+1] = ws.y[3*l+1]
		y[3*g+2] = ws.y[3*l+2]
	}
}

// FlopsPerPE returns the flop count of each PE's local SMVP (2 flops
// per stored scalar). Note this is the element-assembled operator, so
// it can be slightly below the paper's residency-based F when a shared
// node pair's connecting elements all live on another PE.
func (d *Dist) FlopsPerPE() []int64 {
	out := make([]int64, d.P)
	for i, k := range d.K {
		out[i] = int64(2 * k.NNZ())
	}
	return out
}

// indexOf returns the position of v in the sorted slice s, or -1.
func indexOf(s []int32, v int32) int {
	lo := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if lo < len(s) && s[lo] == v {
		return lo
	}
	return -1
}

// MeasureTf times repeated local SMVPs on the host and returns the
// achieved seconds per flop (the paper's T_f, Section 3.1). The matrix
// should be large enough to overflow cache for a realistic figure.
func MeasureTf(k *sparse.BCSR, iters int) float64 {
	if iters <= 0 {
		iters = 1
	}
	x := make([]float64, 3*k.N)
	y := make([]float64, 3*k.N)
	for i := range x {
		x[i] = float64(i%7) * 0.25
	}
	k.MulVec(y, x) // warm up
	start := time.Now()
	for it := 0; it < iters; it++ {
		k.MulVec(y, x)
	}
	elapsed := time.Since(start).Seconds()
	return elapsed / (float64(iters) * float64(2*k.NNZ()))
}

// Operator adapts the distributed SMVP to the solver.Operator
// interface, so conjugate gradients (package solver) can run on the
// goroutine-PE runtime: every CG iteration then exercises exactly the
// computation+exchange structure the paper models, plus the dot
// products an implicit method adds.
type Operator struct {
	D *Dist
	// Shift, when positive, adds Shift·diag(mass) like solver.Shifted,
	// making the operator positive definite for CG.
	Shift float64
	// MassNode is required when Shift is positive.
	MassNode []float64
}

// Apply implements solver.Operator: one phased kernel whose owners
// add the mass shift while gathering y, so the product needs no serial
// pass on the caller's side. It is bit-identical to SMVP followed by
// y += (Shift·m)·x node by node, and advances an armed fault injector
// by exactly one kernel. A kernel failure — a dimension mismatch, a
// closed Dist, or a Dist poisoned by a PE fault — is propagated as an
// error, and solver.CG aborts the solve with it.
func (o Operator) Apply(y, x []float64) error {
	var mass []float64
	if o.Shift > 0 {
		if len(o.MassNode) != o.D.GlobalNodes {
			return fmt.Errorf("par: Operator mass diagonal has %d entries, want %d", len(o.MassNode), o.D.GlobalNodes)
		}
		mass = o.MassNode
	}
	_, err := o.D.smvp(y, x, o.Shift, mass)
	return err
}

// Dim implements solver.Operator.
func (o Operator) Dim() int { return 3 * o.D.GlobalNodes }
