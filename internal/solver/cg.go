// Package solver provides a preconditioned conjugate gradient solver
// built on the SMVP kernel. The Quake applications use explicit time
// stepping precisely so that the SMVP is the *only* parallel operation;
// implicit methods solve a linear system each step with CG, which adds
// global dot products (allreduce communication) to the profile. This
// package supplies the solver itself and, together with
// model.AllReduce, lets the harness quantify what the paper's explicit
// choice avoids.
//
// Reduction order. Every dot product and norm CG forms — ‖b‖, pᵀAp,
// the update sweep's ‖r‖² and rᵀz, the audits' ‖b − A·x‖ and a
// restart's rᵀz — accumulates in one fixed order: four lanes, lane =
// index mod 4, combined as (s0+s1)+(s2+s3). The order is a constant of
// the package, not a setting. It depends only on the vector length,
// never on the operator, so a solve's answer is a function of the
// values Apply returns: an operator wrapped to expose only Apply and
// Dim retraces the bare operator bit for bit, and a distributed
// operator at any width retraces itself whenever its products agree.
// The four independent accumulators also break the latency-bound chain
// of a single running sum.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// ErrInterrupted reports that Config.Interrupt stopped the solve at a
// durable checkpoint boundary. The iterate is consistent: the State just
// delivered to OnCheckpoint resumes the solve bit for bit via
// Config.Resume. The elastic-recovery supervisor uses this to pause a
// solve, regrow or rebalance the partition, and continue on the rebuilt
// operator.
var ErrInterrupted = errors.New("solver: interrupted at checkpoint")

// Operator is a square linear operator on block vectors (length 3·N
// scalars for N block rows).
type Operator interface {
	// Apply computes y = A·x. y and x must not alias. A returned error
	// is fatal to the solve: it means the operator itself can no longer
	// produce answers (e.g. a poisoned distributed runtime), which no
	// amount of rollback can repair.
	Apply(y, x []float64) error
	// Dim returns the scalar dimension of the operator.
	Dim() int
}

// BCSROperator adapts a BCSR matrix to the Operator interface.
type BCSROperator struct{ M *sparse.BCSR }

// Apply implements Operator.
func (o BCSROperator) Apply(y, x []float64) error {
	o.M.MulVec(y, x)
	return nil
}

// Dim implements Operator.
func (o BCSROperator) Dim() int { return 3 * o.M.N }

// Shifted is the operator A = K + σ·diag(M): the stiffness matrix plus
// a scaled lumped-mass diagonal. K alone is positive semidefinite (it
// annihilates rigid-body modes); any σ > 0 makes the operator strictly
// positive definite, which CG requires. Physically this is the
// frequency-domain (Helmholtz-like) or backward-Euler system matrix.
type Shifted struct {
	K *sparse.BCSR
	// MassNode holds one lumped mass per block row, applied to all
	// three of the row's degrees of freedom.
	MassNode []float64
	Sigma    float64
}

// Apply implements Operator.
func (s Shifted) Apply(y, x []float64) error {
	s.K.MulVec(y, x)
	for i, m := range s.MassNode {
		f := s.Sigma * m
		y[3*i] += f * x[3*i]
		y[3*i+1] += f * x[3*i+1]
		y[3*i+2] += f * x[3*i+2]
	}
	return nil
}

// Dim implements Operator.
func (s Shifted) Dim() int { return 3 * s.K.N }

// Diagonal returns the scalar diagonal of the operator, used to build
// the Jacobi preconditioner.
func (s Shifted) Diagonal() []float64 {
	d := make([]float64, s.Dim())
	for i := 0; i < s.K.N; i++ {
		blk := s.K.Block(int32(i), int32(i))
		d[3*i] = blk[0] + s.Sigma*s.MassNode[i]
		d[3*i+1] = blk[4] + s.Sigma*s.MassNode[i]
		d[3*i+2] = blk[8] + s.Sigma*s.MassNode[i]
	}
	return d
}

// Result reports a CG solve.
type Result struct {
	Iterations int
	Residual   float64 // final ‖b − Ax‖₂ / ‖b‖₂
	Converged  bool
	// SMVPs is the number of operator applications (one per iteration
	// plus one for the initial residual) — the communicating operation
	// count an implicit method would execute.
	SMVPs int
	// DotProducts is the number of global dot products performed — each
	// is an allreduce on a parallel machine.
	DotProducts int
	// Detections counts the times self-healing (Config.CheckEvery > 0)
	// caught an inconsistency: non-finite iteration values, a pᵀAp
	// breakdown, or the recursive residual drifting from the true
	// residual b − A·x.
	Detections int
	// Rollbacks counts restorations of the last certified checkpoint
	// (x, r, p, ρ).
	Rollbacks int
	// Restarts counts the recoveries that rebuilt the Krylov state from
	// the true residual because a plain rollback had already been tried
	// against the same checkpoint without an audit passing since.
	Restarts int
	// Checkpoints counts the State snapshots handed to
	// Config.OnCheckpoint.
	Checkpoints int
}

// State is a resumable snapshot of the CG iteration: exactly the tuple
// (x, r, p, ρ) entering iteration Iter. Because each CG iteration reads
// only that tuple (z and Ap are scratch, fully rewritten before use), a
// solve resumed from a State retraces the uninterrupted iteration
// bit for bit — same operator, same floats, same operation order. The
// slices are private copies; the solver never aliases them with its
// workspace.
type State struct {
	// Iter is the 0-based index of the next iteration to execute.
	Iter int
	// X, R, P are the iterate, recursive residual, and search direction
	// entering iteration Iter.
	X, R, P []float64
	// Rho is ρ = rᵀz entering iteration Iter.
	Rho float64
}

// Config controls the CG iteration.
type Config struct {
	MaxIter int
	Tol     float64 // relative residual target
	// Precondition, when non-nil, is the inverse-diagonal (Jacobi)
	// preconditioner: z = Precondition ⊙ r.
	Precondition []float64
	// Workspace, when non-nil, supplies the iteration vectors so
	// repeated solves reuse one set of allocations (an implicit time
	// stepper calls CG every step). A workspace must not be shared by
	// concurrent solves.
	Workspace *Workspace
	// CheckEvery > 0 arms self-healing: every CheckEvery iterations CG
	// recomputes the true residual b − A·x and compares it with the
	// recursively updated residual. Drift beyond DriftTol, a non-finite
	// value anywhere in the iteration, or a pᵀAp breakdown triggers a
	// rollback to the last certified checkpoint of (x, r, p, ρ); a
	// repeat detection from the same checkpoint escalates to a full
	// Krylov restart rebuilt from the true residual. Apparent
	// convergence is then certified against the true residual, so a
	// corrupted operator cannot yield a silently wrong answer. Zero
	// disables self-healing: the classic iteration, with hard errors on
	// non-finite values.
	CheckEvery int
	// DriftTol is the allowed relative gap between the true and
	// recursive residuals before a recovery is triggered: an audit
	// detects when |‖b−Ax‖ − ‖r‖| > DriftTol·(‖b‖ + ‖r‖). The ‖r‖ term
	// keeps roundoff in two large norms from reading as corruption far
	// from convergence. Defaults to 1e-6.
	DriftTol float64
	// MaxRecoveries bounds rollbacks + restarts per solve; exceeding it
	// fails the solve with an error. Defaults to 5.
	MaxRecoveries int
	// CheckpointEvery > 0 arms durable checkpointing: OnCheckpoint
	// receives a State snapshot before the first iteration and then
	// after every CheckpointEvery-th iteration's (p, ρ) update — the
	// consistent tuple entering the next iteration. Snapshots are taken
	// off the per-iteration hot path and may allocate; they are
	// independent of self-healing (CheckEvery). Ignored when
	// OnCheckpoint is nil.
	CheckpointEvery int
	// OnCheckpoint consumes durable snapshots. The *State and its
	// slices are owned by the callee.
	OnCheckpoint func(*State)
	// Interrupt, when non-nil, is polled immediately after every
	// OnCheckpoint delivery (so it runs only when durable checkpointing
	// is armed). Returning true stops the solve with ErrInterrupted;
	// the snapshot just delivered is the exact state to Resume from.
	Interrupt func(iter int) bool
	// Resume, when non-nil, restarts the solve from a captured State
	// instead of the caller's x: the snapshot's (x, r, p, ρ) are loaded
	// and the iteration continues at State.Iter, reproducing the
	// uninterrupted run bit for bit.
	Resume *State
}

// Workspace holds CG's four iteration vectors (r, z, p, Ap) and, when
// self-healing is armed, the checkpoint copies of x, r and p. One
// workspace serves any operator whose dimension fits; it grows on
// demand and is reused across solves via Config.Workspace.
type Workspace struct {
	r, z, p, ap   []float64
	ckX, ckR, ckP []float64
}

// NewWorkspace preallocates a workspace for operators of scalar
// dimension n (3·nodes for the distributed stiffness operator).
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure sizes the vectors for dimension n, reallocating only when the
// capacity is insufficient. CG fully initializes every vector before
// reading it, so stale contents are harmless.
func (w *Workspace) ensure(n int) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
	}
	w.r = w.r[:n]
	w.z = w.z[:n]
	w.p = w.p[:n]
	w.ap = w.ap[:n]
}

// ensureCheckpoint sizes the checkpoint vectors, allocated only for
// solves that arm self-healing.
func (w *Workspace) ensureCheckpoint(n int) {
	if cap(w.ckX) < n {
		w.ckX = make([]float64, n)
		w.ckR = make([]float64, n)
		w.ckP = make([]float64, n)
	}
	w.ckX = w.ckX[:n]
	w.ckR = w.ckR[:n]
	w.ckP = w.ckP[:n]
}

// CG solves A·x = b by (optionally Jacobi-preconditioned) conjugate
// gradients, overwriting x with the solution (x's initial content is
// the starting guess).
func CG(a Operator, b, x []float64, cfg Config) (*Result, error) {
	n := a.Dim()
	if len(b) != n || len(x) != n {
		return nil, fmt.Errorf("solver: dimension mismatch: A %d, b %d, x %d", n, len(b), len(x))
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = n
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-8
	}
	if cfg.Precondition != nil && len(cfg.Precondition) != n {
		return nil, fmt.Errorf("solver: preconditioner length %d, want %d", len(cfg.Precondition), n)
	}
	healing := cfg.CheckEvery > 0
	if cfg.DriftTol <= 0 {
		cfg.DriftTol = 1e-6
	}
	if cfg.MaxRecoveries <= 0 {
		cfg.MaxRecoveries = 5
	}

	res := &Result{}

	// Telemetry: one solve span on the driver track, aggregate counters,
	// and (when tracing) a residual counter series per iteration.
	sp := obs.StartSpan(obs.TrackDriver, "solve", "solver.cg")
	tracer := obs.ActiveTracer()
	obs.GetCounter("solver.cg.solves").Add(1)
	iterations := obs.GetCounter("solver.cg.iterations")
	smvps := obs.GetCounter("solver.cg.smvps")
	dots := obs.GetCounter("solver.cg.dotproducts")
	residual := obs.GetGauge("solver.cg.residual")
	detections := obs.GetCounter("solver.cg.detections")
	rollbacks := obs.GetCounter("solver.cg.rollbacks")
	restarts := obs.GetCounter("solver.cg.restarts")
	defer func() {
		iterations.Add(int64(res.Iterations))
		smvps.Add(int64(res.SMVPs))
		dots.Add(int64(res.DotProducts))
		residual.Set(res.Residual)
		detections.Add(int64(res.Detections))
		rollbacks.Add(int64(res.Rollbacks))
		restarts.Add(int64(res.Restarts))
		obs.GetHistogram("solver.cg.iters_per_solve").Observe(int64(res.Iterations))
		sp.EndWith(map[string]any{
			"iterations": res.Iterations,
			"residual":   res.Residual,
			"converged":  res.Converged,
			"detections": res.Detections,
		})
	}()

	ws := cfg.Workspace
	if ws == nil {
		ws = NewWorkspace(n)
	} else {
		ws.ensure(n)
	}
	if healing {
		ws.ensureCheckpoint(n)
	}
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap
	prec := cfg.Precondition
	if prec == nil {
		z = r // M = I: z = M⁻¹r is r itself, never a copy
	}

	normB := norm2(b)
	res.DotProducts++
	if normB == 0 {
		for i := range x {
			x[i] = 0
		}
		res.Converged = true
		return res, nil
	}
	var rz, ckRz float64
	// restartFrom rebuilds the Krylov state from the true residual at x,
	// given ap = A·x: r = b − A·x, z = M⁻¹r, p = z, ρ = rᵀz.
	restartFrom := func() {
		for i := range r {
			r[i] = b[i] - ap[i]
		}
		for i, m := range prec {
			z[i] = m * r[i]
		}
		copy(p, z)
		rz = dot(r, z)
		res.DotProducts++
	}
	startIter := 0
	if st := cfg.Resume; st != nil {
		if len(st.X) != n || len(st.R) != n || len(st.P) != n {
			return nil, fmt.Errorf("solver: resume state dimension mismatch: x %d, r %d, p %d, want %d", len(st.X), len(st.R), len(st.P), n)
		}
		if st.Iter < 0 || st.Iter >= cfg.MaxIter {
			return nil, fmt.Errorf("solver: resume iteration %d outside [0,%d)", st.Iter, cfg.MaxIter)
		}
		copy(x, st.X)
		copy(r, st.R)
		copy(p, st.P)
		rz = st.Rho
		startIter = st.Iter
		obs.GetCounter("solver.cg.resumes").Add(1)
		obs.RecordFlight(obs.FlightSolver, "solver.cg.resume", -1, int64(st.Iter), 0)
	} else {
		if err := a.Apply(ap, x); err != nil {
			return res, fmt.Errorf("solver: operator failed: %w", err)
		}
		res.SMVPs++
		restartFrom()
	}

	// trueResidual evaluates ‖b − A·x‖ directly, using ap as scratch: at
	// every call site the previous A·p has already been consumed by the
	// x/r update, and the next iteration overwrites ap before reading
	// it. (It must NOT use z — the update sweep builds z = M⁻¹r before
	// the audits run and the p-direction update reads it after them.)
	trueResidual := func() (float64, error) {
		if err := a.Apply(ap, x); err != nil {
			return 0, err
		}
		res.SMVPs++
		for i := range ap {
			ap[i] = b[i] - ap[i]
		}
		res.DotProducts++
		return norm2(ap), nil
	}

	// ckTr is the true residual ‖b − A·x‖ certified for the current
	// checkpoint; ckUsed marks a checkpoint that has already served a
	// rollback without an audit passing since.
	var ckTr float64
	var ckUsed bool
	checkpoint := func(tr float64) {
		copy(ws.ckX, x)
		copy(ws.ckR, r)
		copy(ws.ckP, p)
		ckRz = rz
		ckTr = tr
		ckUsed = false
	}

	// heal recovers from a detected inconsistency. trNow is the true
	// residual already measured at the current x (NaN when unknown, e.g.
	// after a non-finite breakdown). The first recovery from a given
	// checkpoint restores the full Krylov state (x, r, p, ρ) and
	// resumes — cheap, and correct when the corruption struck after the
	// checkpoint was certified. A repeat detection before the next audit
	// passes means the checkpointed state itself carries the fault (a
	// certified checkpoint may still hide a sub-DriftTol recursion gap
	// that regrows), so the recovery escalates: keep the better of the
	// current and checkpointed x and rebuild the Krylov state from the
	// true residual (r = b − A·x, p = z, ρ = rᵀz). The rebuilt state is
	// exact by construction, and restarted CG from any finite x converges
	// to the SPD solution.
	heal := func(reason string, trNow float64) error {
		res.Detections++
		obs.RecordFlight(obs.FlightSolver, "solver.cg.detect", -1, int64(res.Iterations), 0)
		if res.Rollbacks+res.Restarts >= cfg.MaxRecoveries {
			return fmt.Errorf("solver: fault persisted after %d recoveries (last detection: %s)", cfg.MaxRecoveries, reason)
		}
		if !ckUsed {
			copy(x, ws.ckX)
			copy(r, ws.ckR)
			copy(p, ws.ckP)
			rz = ckRz
			ckUsed = true
			res.Rollbacks++
			obs.RecordFlight(obs.FlightSolver, "solver.cg.rollback", -1, int64(res.Iterations), 0)
			return nil
		}
		if !isFinite(trNow) || trNow > ckTr {
			copy(x, ws.ckX)
		}
		res.Restarts++
		obs.RecordFlight(obs.FlightSolver, "solver.cg.restart", -1, int64(res.Iterations), 0)
		for i := range x {
			if !isFinite(x[i]) {
				x[i] = 0
			}
		}
		if err := a.Apply(ap, x); err != nil {
			return fmt.Errorf("solver: operator failed during restart: %w", err)
		}
		res.SMVPs++
		restartFrom()
		checkpoint(norm2(r))
		res.DotProducts++
		return nil
	}

	if healing {
		checkpoint(norm2(r))
		res.DotProducts++
	}

	// Durable checkpoints: deep-copied States handed to the caller, who
	// typically persists them (internal/recover) or holds them for a
	// shrink-to-survivors rebuild. The cold path may allocate — only the
	// SMVP inside Apply is alloc-free steady state.
	durable := cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil
	snapshot := func(iter int) *State {
		return &State{
			Iter: iter,
			X:    append([]float64(nil), x...),
			R:    append([]float64(nil), r...),
			P:    append([]float64(nil), p...),
			Rho:  rz,
		}
	}
	if durable && cfg.Resume == nil {
		// Iteration-0 snapshot, so a fault before the first periodic
		// checkpoint still leaves a consistent state to resume from.
		res.Checkpoints++
		cfg.OnCheckpoint(snapshot(0))
		if cfg.Interrupt != nil && cfg.Interrupt(0) {
			return res, ErrInterrupted
		}
	}

	for iter := startIter; iter < cfg.MaxIter; iter++ {
		res.Iterations = iter + 1
		if err := a.Apply(ap, p); err != nil {
			return res, fmt.Errorf("solver: operator failed at iteration %d: %w", iter, err)
		}
		pap := dot(p, ap)
		res.SMVPs++
		res.DotProducts++
		if !isFinite(pap) || pap <= 0 {
			if !healing {
				return res, fmt.Errorf("solver: breakdown: pᵀAp = %g at iteration %d (operator not positive definite, or corrupted)", pap, iter)
			}
			if err := heal(fmt.Sprintf("pᵀAp = %g at iteration %d", pap, iter), math.NaN()); err != nil {
				return res, err
			}
			continue
		}
		alpha := rz / pap
		// One sweep: x/r updates, ‖r‖², z = M⁻¹r, and ρ = rᵀz. The
		// precomputed (z, ρ) are consumed after the audits below — which
		// is why trueResidual scratches in ap, not z.
		rn2, rzNew := update(x, r, z, p, ap, prec, alpha)
		rn := math.Sqrt(rn2)
		res.DotProducts += 2 // ‖r‖² and rᵀz, merged into the sweep
		if !isFinite(rn) {
			if !healing {
				return res, fmt.Errorf("solver: residual became non-finite (‖r‖ = %g) at iteration %d", rn, iter)
			}
			if err := heal(fmt.Sprintf("‖r‖ = %g at iteration %d", rn, iter), math.NaN()); err != nil {
				return res, err
			}
			continue
		}
		res.Residual = rn / normB
		if tracer != nil {
			tracer.CounterEvent(obs.TrackDriver, "solver.cg.residual", res.Residual)
		}
		if res.Residual <= cfg.Tol {
			if !healing {
				res.Converged = true
				return res, nil
			}
			// Certify convergence against the true residual: a corrupted
			// exchange can drive the recursive residual to zero while x
			// is wrong.
			tr, err := trueResidual()
			if err != nil {
				return res, fmt.Errorf("solver: operator failed certifying convergence: %w", err)
			}
			if isFinite(tr) && tr/normB <= cfg.Tol {
				res.Residual = tr / normB
				res.Converged = true
				return res, nil
			}
			if err := heal(fmt.Sprintf("recursive residual %.3g converged but true residual is %.3g at iteration %d", res.Residual, tr/normB, iter), tr); err != nil {
				return res, err
			}
			continue
		}
		// Periodic audit: compare the recursive residual with the true
		// residual. The drift threshold scales with the current residual
		// so roundoff in two large norms is not mistaken for corruption.
		// A passing state is certified, but the checkpoint itself is
		// saved only after the upcoming (p, ρ) update: saving here would
		// capture (x_{k+1}, r_{k+1}, p_k, ρ_k) — a mixed-generation tuple
		// whose resumption re-applies the p_k step from the wrong iterate
		// and quietly diverges.
		certified := false
		var certTr float64
		if healing && (iter+1)%cfg.CheckEvery == 0 {
			tr, err := trueResidual()
			if err != nil {
				return res, fmt.Errorf("solver: operator failed at residual audit: %w", err)
			}
			if !isFinite(tr) || math.Abs(tr-rn) > cfg.DriftTol*(normB+rn) {
				if err := heal(fmt.Sprintf("residual drift |%.6g − %.6g| exceeds %g·(‖b‖+‖r‖) at iteration %d", tr, rn, cfg.DriftTol, iter), tr); err != nil {
					return res, err
				}
				continue
			}
			certified, certTr = true, tr
		}
		if healing && !isFinite(rzNew) {
			if err := heal(fmt.Sprintf("ρ = %g at iteration %d", rzNew, iter), math.NaN()); err != nil {
				return res, err
			}
			continue
		}
		beta := rzNew / rz
		rz = rzNew
		for i, zi := range z[:len(p)] {
			p[i] = zi + beta*p[i]
		}
		if certified {
			// (x_{k+1}, r_{k+1}, p_{k+1}, ρ_{k+1}) — exactly the state
			// entering the next iteration, safe to resume from.
			checkpoint(certTr)
		}
		if durable && (iter+1)%cfg.CheckpointEvery == 0 {
			res.Checkpoints++
			cfg.OnCheckpoint(snapshot(iter + 1))
			if cfg.Interrupt != nil && cfg.Interrupt(iter+1) {
				return res, ErrInterrupted
			}
		}
	}
	return res, nil
}

// update is CG's vector sweep: in one pass over the iteration vectors
// it applies x += α·p and r −= α·ap, forms z = M⁻¹·r, and accumulates
// ‖r‖² and ρ = rᵀz in the canonical reduction order (lane = index mod
// 4, combined (s0+s1)+(s2+s3)), so both sums are bit-identical to
// dot(r, r) and dot(r, z) over the finished vectors. Without a
// preconditioner z aliases r: z is not written and ρ = ‖r‖².
func update(x, r, z, p, ap, prec []float64, alpha float64) (rn2, rz float64) {
	n := len(x)
	r, p, ap = r[:n], p[:n], ap[:n]
	var s0, s1, s2, s3 float64 // lanes of ‖r‖²
	if prec == nil {
		i := 0
		for ; i+4 <= n; i += 4 {
			xs, rs, ps, as := x[i:i+4:i+4], r[i:i+4:i+4], p[i:i+4:i+4], ap[i:i+4:i+4]
			xs[0] += alpha * ps[0]
			xs[1] += alpha * ps[1]
			xs[2] += alpha * ps[2]
			xs[3] += alpha * ps[3]
			r0, r1, r2, r3 := rs[0]-alpha*as[0], rs[1]-alpha*as[1], rs[2]-alpha*as[2], rs[3]-alpha*as[3]
			rs[0], rs[1], rs[2], rs[3] = r0, r1, r2, r3
			s0 += r0 * r0
			s1 += r1 * r1
			s2 += r2 * r2
			s3 += r3 * r3
		}
		for ; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		j := n &^ 3
		s0, s1, s2 = tail(s0, s1, s2, r[j:], r[j:])
		rn2 = (s0 + s1) + (s2 + s3)
		return rn2, rn2
	}
	z, prec = z[:n], prec[:n]
	var t0, t1, t2, t3 float64 // lanes of rᵀz
	i := 0
	for ; i+4 <= n; i += 4 {
		xs, rs, ps, as := x[i:i+4:i+4], r[i:i+4:i+4], p[i:i+4:i+4], ap[i:i+4:i+4]
		zs, ms := z[i:i+4:i+4], prec[i:i+4:i+4]
		xs[0] += alpha * ps[0]
		xs[1] += alpha * ps[1]
		xs[2] += alpha * ps[2]
		xs[3] += alpha * ps[3]
		r0, r1, r2, r3 := rs[0]-alpha*as[0], rs[1]-alpha*as[1], rs[2]-alpha*as[2], rs[3]-alpha*as[3]
		rs[0], rs[1], rs[2], rs[3] = r0, r1, r2, r3
		z0, z1, z2, z3 := ms[0]*r0, ms[1]*r1, ms[2]*r2, ms[3]*r3
		zs[0], zs[1], zs[2], zs[3] = z0, z1, z2, z3
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
		t0 += r0 * z0
		t1 += r1 * z1
		t2 += r2 * z2
		t3 += r3 * z3
	}
	for ; i < n; i++ {
		x[i] += alpha * p[i]
		r[i] -= alpha * ap[i]
		z[i] = prec[i] * r[i]
	}
	j := n &^ 3
	s0, s1, s2 = tail(s0, s1, s2, r[j:], r[j:])
	t0, t1, t2 = tail(t0, t1, t2, r[j:], z[j:])
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// dot returns Σ a[i]·b[i] in the canonical reduction order: four lanes,
// lane = i mod 4, combined as (s0+s1)+(s2+s3).
func dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		as, bs := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += as[0] * bs[0]
		s1 += as[1] * bs[1]
		s2 += as[2] * bs[2]
		s3 += as[3] * bs[3]
	}
	s0, s1, s2 = tail(s0, s1, s2, a[i:], b[i:])
	return (s0 + s1) + (s2 + s3)
}

// tail folds the products of the last len(a) < 4 elements — those past
// the final full group of four — into lanes 0, 1 and 2.
func tail(s0, s1, s2 float64, a, b []float64) (float64, float64, float64) {
	switch len(a) {
	case 3:
		s2 += a[2] * b[2]
		fallthrough
	case 2:
		s1 += a[1] * b[1]
		fallthrough
	case 1:
		s0 += a[0] * b[0]
	}
	return s0, s1, s2
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }
