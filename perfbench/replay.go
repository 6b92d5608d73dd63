package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	iq "repro/internal/quake"
	rec "repro/internal/recover"
	"repro/internal/regress"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// The solve parameters the engine applies to every request of this
// benchmark: its default shift, its checkpoint period and retained
// checkpoint tail, and its iteration cap (the smaller of MaxIter and
// four times the dimension).
const (
	engineShift      = 20
	engineCkptEvery  = 10
	engineKeepCkpts  = 3
	engineMaxIter    = 200000
	engineMaxAttempt = 3
)

// replica is the harness's own copy of one tuple's served pipeline,
// built and solved by calling each layer's public functions in the
// order the engine calls them, with every call wrapped in a span.
type replica struct {
	t     *tracer
	key   serve.Key
	m     *mesh.Mesh
	mat   *material.Model
	pt    *partition.Partition
	pr    *partition.Profile
	sched *comm.Schedule
	sys   *fem.System
	fp    serve.Fingerprints
	// meshID is the recover-layer identity durable checkpoints carry.
	meshID uint64
	// d and ws are the warm worker: the persistent-PE operator and its
	// CG workspace.
	d  *par.Dist
	ws *solver.Workspace
	// ckptDir, when set, makes solves write durable checkpoints into
	// per-solve stores under it.
	ckptDir string
	solves  int
	// accCompute and accComm are the runtime's per-PE phase
	// accumulators, read around every traced operator application.
	accCompute, accComm *obs.PEAccum
}

// buildReplica runs the engine's artifact build for (m, p): partition,
// analysis, schedule, assembly, fingerprints, and the first worker.
func buildReplica(t *tracer, m *mesh.Mesh, p int) (*replica, error) {
	r := &replica{t: t, m: m, mat: iq.Material(),
		key: serve.Key{Scenario: scenarioName, P: p, Method: methodName, NodeSize: 1}}
	method, err := partition.MethodByName(methodName)
	if err != nil {
		return nil, err
	}
	id := t.begin("partition.partition")
	r.pt, err = partition.PartitionMesh(m, p, method, 1)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("partition.analyze")
	r.pr, err = partition.Analyze(m, r.pt)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("comm.schedule")
	r.sched, err = comm.FromMatrix(r.pr.Msg)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("fem.assemble")
	r.sys, err = fem.Assemble(m, r.mat)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("recover.mesh_id")
	r.meshID = rec.MeshID(m)
	t.end(id)
	id = t.begin("regress.fingerprint")
	r.fp = serve.Fingerprints{
		Key:       r.key.Fingerprint(),
		Mesh:      regress.Mesh(m),
		Partition: regress.Partition(r.pt),
		Schedule:  regress.Schedule(r.sched),
	}
	t.end(id)
	if err := r.spawn(); err != nil {
		return nil, err
	}
	r.accCompute = obs.GetPEAccum("par.phase.compute.ns", p)
	r.accComm = obs.GetPEAccum("par.phase.exchange.ns", p)
	return r, nil
}

// spawn builds a fresh worker, as the engine does for its pool.
func (r *replica) spawn() error {
	id := r.t.begin("par.newdist")
	d, err := par.NewDist(r.m, r.mat, r.pt, r.pr)
	r.t.end(id)
	if err != nil {
		return err
	}
	id = r.t.begin("solver.workspace")
	r.d, r.ws = d, solver.NewWorkspace(3*r.m.NumNodes())
	r.t.end(id)
	return nil
}

func (r *replica) close() {
	if r.d != nil {
		r.d.Close()
	}
}

// answer is one replayed solve's outcome.
type answer struct {
	seed       int64
	iterations int
	migrations int
	saves      int
	ckptBytes  int64
	certRes    float64
	solutionFP uint64
}

// solve replays one served solve: right-hand side, CG on the warm
// worker with the engine's checkpoint hook, a migration onto a fresh
// worker when the fault plan kills a PE, certification and the
// solution fingerprint.
func (r *replica) solve(seed int64, plan *fault.Plan) (*answer, error) {
	t := r.t
	n := 3 * r.m.NumNodes()
	ans := &answer{seed: seed}

	id := t.begin("serve.rhs")
	b := rhsFor(seed, n)
	x := make([]float64, n)
	normB := norm2(b)
	t.end(id)

	var store *rec.Store
	if r.ckptDir != "" {
		r.solves++
		var err error
		id = t.begin("recover.store_open")
		store, err = rec.NewStore(filepath.Join(r.ckptDir, fmt.Sprintf("job%06d", r.solves)))
		t.end(id)
		if err != nil {
			return nil, err
		}
	}
	var (
		inj        *fault.Injector
		kernelBase int64
		last       *solver.State
		saveErr    error
	)
	emit := func(st *solver.State) {
		last = st
		if store == nil {
			return
		}
		ck := &rec.Checkpoint{
			MeshID: r.meshID, P: int32(r.pt.P), ElemPE: r.pt.ElemPE,
			Iter: int64(st.Iter), Rho: st.Rho, X: st.X, R: st.R, PDir: st.P,
			FaultIter: kernelBase,
		}
		if inj != nil {
			ck.FaultIter = inj.Iter()
		}
		if plan != nil {
			ck.FaultPlan = plan.String()
		}
		id := t.begin("recover.ckpt_save")
		path, err := store.Save(ck)
		if err == nil {
			_, err = store.Prune(engineKeepCkpts)
		}
		t.end(id)
		if err != nil {
			saveErr = err
			return
		}
		ans.saves++
		if fi, err := os.Stat(path); err == nil {
			ans.ckptBytes += fi.Size()
		}
	}
	scfg := solver.Config{
		MaxIter:         min(engineMaxIter, 4*n),
		Tol:             requestTol,
		CheckpointEvery: engineCkptEvery,
		OnCheckpoint:    emit,
	}
	var resume *solver.State
	for attempt := 1; ; attempt++ {
		if plan != nil {
			var err error
			if inj, err = r.d.InjectFaults(plan); err != nil {
				return nil, err
			}
			inj.Advance(kernelBase)
		}
		scfg.Workspace, scfg.Resume = r.ws, resume
		op := tracedOp{r: r, op: par.Operator{D: r.d, Shift: engineShift, MassNode: r.sys.MassNode}}
		id := t.begin("solver.cg")
		sr, err := solver.CG(op, b, x, scfg)
		t.end(id)
		if saveErr != nil {
			return nil, saveErr
		}
		if err == nil {
			if plan != nil {
				r.d.InjectFaults(nil)
			}
			ans.iterations = sr.Iterations
			if !sr.Converged {
				return nil, fmt.Errorf("replay: seed %d did not converge", seed)
			}
			break
		}
		_, died := rec.DeadPE(err)
		if !died || last == nil || attempt >= engineMaxAttempt {
			return nil, fmt.Errorf("replay: seed %d: %w", seed, err)
		}
		// The worker is dead, the job is not: resume from the newest
		// checkpoint on a fresh full-width worker.
		kernelBase = inj.Iter()
		r.d.Close()
		if err := r.spawn(); err != nil {
			return nil, err
		}
		resume = last
		ans.migrations++
	}

	id = t.begin("serve.certify")
	ax := make([]float64, n)
	err := par.Operator{D: r.d, Shift: engineShift, MassNode: r.sys.MassNode}.Apply(ax, x)
	var rr float64
	for i := range ax {
		diff := b[i] - ax[i]
		rr += diff * diff
	}
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("replay: certifying seed %d: %w", seed, err)
	}
	ans.certRes = math.Sqrt(rr) / normB

	id = t.begin("regress.solution_fp")
	ans.solutionFP = regress.Vector(x)
	_ = norm2(x) // the engine reports ‖x‖ beside the fingerprint
	t.end(id)
	return ans, nil
}

// tracedOp is the served operator with a span around every
// application. The per-PE compute and exchange durations of the call
// are read as deltas of the runtime's phase accumulators and recorded
// as PE phase spans, so the application's self time is its dispatch
// overhead: scatter, gather, barrier wake-up and the mass shift.
type tracedOp struct {
	r  *replica
	op par.Operator
}

func (o tracedOp) Dim() int { return o.op.Dim() }

func (o tracedOp) Apply(y, x []float64) error {
	t := o.r.t
	if !t.on {
		return o.op.Apply(y, x)
	}
	c0, x0 := o.r.accCompute.Snapshot(), o.r.accComm.Snapshot()
	id := t.begin("par.apply")
	err := o.op.Apply(y, x)
	t.end(id)
	dc, dx := o.r.accCompute.Snapshot().Sub(c0), o.r.accComm.Snapshot().Sub(x0)
	for pe := 0; pe < o.op.D.P && pe < len(dc.Sum) && pe < len(dx.Sum); pe++ {
		comp := time.Duration(dc.Sum[pe])
		t.phase(id, "par.compute", pe, 0, comp)
		t.phase(id, "par.comm", pe, comp, time.Duration(dx.Sum[pe]))
	}
	return err
}

// rhsFor is the engine's deterministic right-hand side for a nonzero
// seed: a seeded unit-normal vector.
func rhsFor(seed int64, n int) []float64 {
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func norm2(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v * v
	}
	return math.Sqrt(s)
}

// sequentialNorm solves the same shifted system sequentially on the
// globally assembled K and returns ‖x‖₂: an answer computed without
// the partition, the distributed operator, or the engine.
func sequentialNorm(k *sparse.BCSR, mass []float64, seed int64) (float64, error) {
	n := 3 * k.N
	b := rhsFor(seed, n)
	x := make([]float64, n)
	res, err := solver.CG(solver.Shifted{K: k, Sigma: engineShift, MassNode: mass}, b, x,
		solver.Config{MaxIter: min(engineMaxIter, 4*n), Tol: requestTol})
	if err != nil {
		return 0, err
	}
	if !res.Converged {
		return 0, errors.New("sequential solve did not converge")
	}
	return norm2(x), nil
}

// replayLedger replays the workload's requests through the harness's
// own copy of the pipeline for d, alternating traced and untraced
// replays, and fills the per-layer metrics.
func replayLedger(wl workload, opt options, h *replica, w window, d time.Duration, res *result, out io.Writer) error {
	servedFP := map[int64]uint64{}
	var seeds []int64
	var outside, servedWall []float64
	for _, o := range w.outcomes {
		if o.res == nil {
			continue
		}
		servedFP[o.seed] = o.res.SolutionFP
		seeds = append(seeds, o.seed)
		outside = append(outside, o.wallMS-o.res.WallMS)
		servedWall = append(servedWall, o.wallMS)
	}
	if len(seeds) == 0 {
		return fmt.Errorf("no served answers to replay")
	}
	var plan *fault.Plan
	if wl.durable {
		var err error
		if plan, err = fault.Parse(wl.request(1).Faults); err != nil {
			return err
		}
	}
	scen, err := iq.ByName(scenarioName)
	if err != nil {
		return err
	}
	t := newTracer()
	h.t = t
	var traced, untraced []float64
	var iters []float64
	var ckptBytes, saves float64
	start := time.Now()
	// At least four replays, so even a short run has an untraced one.
	for i := 0; i < 4 || time.Since(start) < d; i++ {
		seed := seeds[i%len(seeds)]
		// Every fourth replay runs untraced: the difference of the means
		// is the tracing overhead.
		t.on, t.req = i%4 != 3, i
		t0 := time.Now()
		root := t.begin(rootSpan)
		r := h
		if wl.fresh {
			id := t.begin("mesh.lookup")
			m, err := scen.Mesh()
			t.end(id)
			if err != nil {
				return err
			}
			if r, err = buildReplica(t, m, pes()); err != nil {
				return err
			}
		}
		a, err := r.solve(seed, plan)
		if wl.fresh {
			id := t.begin("par.close")
			r.close()
			t.end(id)
		}
		t.end(root)
		wall := ms(time.Since(t0))
		if err != nil {
			return err
		}
		if t.on {
			traced = append(traced, wall)
		} else {
			untraced = append(untraced, wall)
		}
		iters = append(iters, float64(a.iterations))
		saves += float64(a.saves)
		ckptBytes += float64(a.ckptBytes)
		res.tally.add(replayVerdict(a, servedFP, wl))
	}
	t.on = false
	L := buildLedger(t.spans)
	path := filepath.Join(opt.workdir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, opt.seed))
	if err := writeChromeTrace(path, t.spans, chromeRequests); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: replayed %d requests (%d traced); Chrome trace of the first %d in %s\n",
		wl.name, len(iters), len(traced), chromeRequests, path)

	m := res.perLayer
	hit, spawns, migr, savesPerReq, journal := counterRates(w)
	m.set("serve.request_ms.mean", mean(servedWall), "ms")
	m.set("serve.outside_solve_ms", mean(outside), "ms")
	m.set("serve.certify_ms", L.SpanMS["serve.certify"], "ms")
	m.set("serve.cache.hit_ratio", hit, "ratio")
	m.set("serve.pool.spawns_per_request", spawns, "count")
	m.set("serve.job.migrations_per_request", migr, "count")
	m.set("serve.journal_bytes_per_request", journal, "bytes")
	m.set("partition.partition_ms", L.SpanMS["partition.partition"], "ms")
	m.set("partition.analyze_ms", L.SpanMS["partition.analyze"], "ms")
	m.set("partition.cmax_words", float64(h.pr.Cmax()), "count")
	m.set("partition.bmax_blocks", float64(h.pr.Bmax()), "count")
	m.set("comm.schedule_ms", L.SpanMS["comm.schedule"], "ms")
	m.set("fem.assemble_ms", L.SpanMS["fem.assemble"], "ms")
	m.set("regress.fingerprint_ms", L.SpanMS["regress.fingerprint"], "ms")
	m.set("par.newdist_ms", L.SpanMS["par.newdist"], "ms")
	m.set("par.smvp_ms", L.SpanMS["par.apply"], "ms")
	m.set("par.compute_ms.max", L.ComputeMaxMS, "ms")
	m.set("par.compute_ms.sum", L.ComputeSumMS, "ms")
	m.set("par.comm_ms.max", L.CommMaxMS, "ms")
	m.set("par.dispatch_ms", L.SelfByName["par.apply"], "ms")
	m.set("solver.cg_ms", L.SpanMS["solver.cg"], "ms")
	m.set("solver.driver_ms", L.SelfByName["solver.cg"], "ms")
	m.set("solver.iterations", mean(iters), "count")
	perSave := 0.0
	if n := L.Count["recover.ckpt_save"]; n > 0 {
		perSave = L.SpanMS["recover.ckpt_save"] / n
	}
	m.set("recover.ckpt_save_ms", perSave, "ms")
	if saves > 0 {
		m.set("recover.ckpt_bytes", ckptBytes/saves, "bytes")
	} else {
		m.set("recover.ckpt_bytes", 0, "bytes")
	}
	m.set("recover.saves_per_request", savesPerReq, "count")

	// The paper's checks: T_f from the max-PE compute per call over the
	// largest PE's flops, achieved T_c from the max-PE exchange per call
	// over C_max words, and Eq.(1)'s required T_c at E = 0.9.
	flops := int64(0)
	for _, f := range h.d.FlopsPerPE() {
		flops = max(flops, f)
	}
	tf, tc := 0.0, 0.0
	if L.Applies > 0 {
		tf = L.ComputeMaxMS / L.Applies * 1e6 / float64(flops)
		tc = L.CommMaxMS / L.Applies * 1e6 / float64(h.pr.Cmax())
	}
	m.set("model.tf_ns_per_flop", tf, "ns")
	m.set("model.achieved_tc_ns", tc, "ns")
	req := 0.0
	if tf > 0 {
		req = model.RequiredTc(model.AppProperties{F: flops, Cmax: h.pr.Cmax(), Bmax: h.pr.Bmax()}, 0.9, tf*1e-9) * 1e9
	}
	m.set("model.required_tc_ns", req, "ns")
	share := 0.0
	if L.SpanMS["solver.cg"] > 0 {
		share = L.SpanMS["par.apply"] / L.SpanMS["solver.cg"]
	}
	m.set("model.smvp_share", share, "ratio")

	for _, layer := range ledgerLayers {
		m.set("self_ms."+layer, L.SelfMS[layer], "ms")
	}
	m.set("unaccounted_ms", L.Unaccounted, "ms")
	m.set("trace.request_ms", L.RequestMS, "ms")
	m.set("trace.overhead_ms", mean(traced)-mean(untraced), "ms")
	var sum float64
	for _, v := range L.SelfMS {
		sum += v
	}
	res.notes = append(res.notes, fmt.Sprintf("ledger: Σ self_ms.* %.3f + unaccounted_ms %.3f = %.3f ms = trace.request_ms %.3f ms over %d traced requests",
		sum, L.Unaccounted, sum+L.Unaccounted, L.RequestMS, L.Requests))
	res.notes = append(res.notes, fmt.Sprintf("served request mean %.3f ms vs traced replay %.3f ms: the gap is what the replay does not call (HTTP, job intake, journal) plus client concurrency",
		mean(servedWall), L.RequestMS))
	if wl.name == "warm" && L.Count["par.newdist"] > 0 {
		res.problems = append(res.problems, "par.newdist ran inside a warm request")
	}
	return nil
}

// chromeRequests bounds the replayed requests written to the Chrome
// trace; the ledger uses every traced request.
const chromeRequests = 4

// ledgerLayers are the layers the self times are charged to: the
// repository's packages on the served path.
var ledgerLayers = []string{"serve", "mesh", "partition", "comm", "fem", "regress", "recover", "par", "solver"}

// replayVerdict checks a replayed answer: certified to tolerance, the
// durable migration, and bit-identical to the served answer.
func replayVerdict(a *answer, served map[int64]uint64, wl workload) string {
	switch {
	case !(a.certRes <= requestTol):
		return fmt.Sprintf("replay cert_residual %.3g above tol", a.certRes)
	case wl.durable && a.migrations != 1:
		return fmt.Sprintf("replay made %d migrations, want 1", a.migrations)
	case a.solutionFP != served[a.seed]:
		return fmt.Sprintf("replay solution_fp %x differs from served %x for seed %d", a.solutionFP, served[a.seed], a.seed)
	}
	return ""
}
