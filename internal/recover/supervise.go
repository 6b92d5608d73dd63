package recover

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/solver"
)

// System describes everything needed to rebuild the distributed
// operator at a new width after a PE loss, a revival, or a rebalance.
// The mesh, material, and shift never change across transitions; the
// partition is the *initial* one, and the supervisor tracks its
// replacements.
type System struct {
	Mesh     *mesh.Mesh
	Material *material.Model
	Part     *partition.Partition
	// Shift and MassNode parameterize the CG operator exactly as
	// par.Operator does.
	Shift    float64
	MassNode []float64
	// NodeOf, when non-nil, is the two-level aggregation map of the
	// initial width; it is recomposed past each transition and
	// reinstalled on every rebuilt Dist.
	NodeOf func(pe int32) int32
}

// SuperviseConfig is the recovery policy around a solver.Config.
type SuperviseConfig struct {
	Solver solver.Config
	// MaxShrinks and MaxGrows bound the absorbed transitions per solve
	// (default 3 each; the partition also cannot shrink below one PE).
	// Revive events past MaxGrows are dropped.
	MaxShrinks int
	MaxGrows   int
	// Store, when non-nil, receives a durable checkpoint for every
	// solver snapshot (Solver.CheckpointEvery, default 10), tagged with
	// MeshID (see MeshID). Checkpoints carry the *remaining* fault plan
	// and the global kernel count, so a restarted process re-arms
	// exactly the events that have not fired. A write failure is counted
	// under recover.checkpoint.errors but does not abort the solve —
	// durability degrades before availability does.
	Store  *Store
	MeshID uint64
	// Plan is the fault plan to arm. The supervisor owns the injector:
	// it arms a clamped copy on every rebuilt Dist and consumes revive
	// events itself at checkpoint boundaries (the injector never fires
	// them). Callers must not pre-arm the Dist.
	Plan *fault.Plan
	// AdvanceKernels is the global kernel count already executed before
	// this call (the durable-checkpoint resume path); plan events at or
	// below it are treated as already fired.
	AdvanceKernels int64
	// Stop, polled at checkpoint boundaries, ends the supervised solve
	// when it returns true: Supervise returns the partial outcome with
	// solver.ErrInterrupted instead of absorbing the interrupt and
	// resuming. This is how callers impose a wall deadline — unlike
	// Solver.Interrupt, which the supervisor shares with its own
	// revive/rebalance signalling and resumes straight through.
	Stop func() bool
	// Rebalance arms straggler-driven rebalancing: at every checkpoint
	// the supervisor reads the per-PE compute accumulators for the
	// window since the previous checkpoint, and when the hysteresis
	// trips (see RebalanceConfig) migrates boundary layers at that
	// checkpoint. Requires obs metrics enabled to see any windows; nil
	// disarms.
	Rebalance *RebalanceConfig
	// Replace, when set, selects the migrate policy: a dead worker — a
	// kill (DeadPE) or a poisoned Dist (par.ErrPoisoned, dead = −1) —
	// is replaced instead of shrunk over. Supervise closes the dead
	// Dist and calls Replace with the PE and the checkpoint iteration
	// the solve resumes from; the returned Dist must be a fresh operator
	// on the original partition with its aggregation installed. The
	// remaining plan is re-armed on it and CG resumes from the last
	// checkpoint. A death before the first checkpoint, or a Replace
	// error, ends the solve.
	Replace func(dead, iter int) (*par.Dist, error)
}

// SuperviseOutcome reports a supervised solve.
type SuperviseOutcome struct {
	// Result is the final CG result (partial when the solve failed or
	// was stopped).
	Result *solver.Result
	// Shrinks counts absorbed PE losses; DeadPEs lists them in the PE
	// numbering current at each death.
	Shrinks int
	DeadPEs []int
	// Grows counts regrowths; RevivedPEs lists the slots in the PE
	// numbering current at each regrowth.
	Grows      int
	RevivedPEs []int
	// Migrations counts boundary layers moved by rebalance passes.
	Migrations int
	// FinalLambda is the last measured compute imbalance λ (0 when
	// rebalancing was disarmed or no window was ever measured).
	FinalLambda float64
	// Kernels is the global kernel count, for chaining restarts. Once
	// the plan is fully consumed the injector disarms and the count
	// freezes at the last transition; with events still armed it is the
	// final count.
	Kernels int64
	// Part and Dist are the partition and operator that finished the
	// solve — the caller's originals (or Replace's Dist) when no
	// transition rebuilt them. The caller owns Dist and must Close it.
	Part *partition.Partition
	Dist *par.Dist
}

// clampPlan returns a copy of p holding only the events still meaningful
// at the given width after `after` kernels: timed events already fired
// are dropped, events naming PEs outside the width are dropped, and
// revive slots beyond the width clamp to an append at the top. Returns
// nil when nothing remains (disarm).
func clampPlan(p *fault.Plan, width int, after int64) *fault.Plan {
	if p == nil {
		return nil
	}
	out := &fault.Plan{Seed: p.Seed}
	for _, e := range p.Events {
		if e.Iter != fault.EveryIter && e.Iter <= after {
			continue
		}
		if e.Kind == fault.Revive {
			if e.PE > width {
				e.PE = width
			}
			if e.PE < 0 {
				continue
			}
		} else if e.PE != fault.Unset && (e.PE < 0 || e.PE >= width) {
			continue
		}
		if e.Dst != fault.Unset && (e.Dst < 0 || e.Dst >= width) {
			continue
		}
		out.Events = append(out.Events, e)
	}
	if len(out.Events) == 0 {
		return nil
	}
	return out
}

// Supervise runs CG on d and keeps the solve alive — and well — through
// sustained churn. Kill faults shrink to the survivors (Shrink), or,
// under the Replace policy, move the solve onto a fresh full-width
// Dist; revive events in the plan regrow the partition onto the
// recovered PE at the next checkpoint boundary (Grow); and, when
// Rebalance is armed, measured per-PE compute imbalance above the
// hysteresis threshold migrates boundary layers off stragglers at a
// checkpoint (Rebalance). Every transition swaps the operator,
// recomposes the two-level aggregation map, re-arms the remaining fault
// plan with the global kernel count fast-forwarded, and resumes CG from
// the last consistent checkpoint. Software faults (unless Replace is
// set) and losses beyond the bounds propagate unchanged.
//
// The global problem (b, x, the solver state) is indexed by mesh node,
// not by PE, so a checkpoint taken at width p resumes bit-compatibly at
// any other width: only the operator's internals changed. A resumed
// trajectory at a new width is not bit-identical to a fault-free run —
// the rebuilt operator sums partial results in a different order — but
// it is the same CG iteration on the same SPD system, so it converges
// to the same tolerance. On a replacement Dist the partition is
// unchanged, so the resumed trajectory is bit-identical.
func Supervise(d *par.Dist, sys *System, b, x []float64, cfg SuperviseConfig) (*SuperviseOutcome, error) {
	if cfg.MaxShrinks <= 0 {
		cfg.MaxShrinks = 3
	}
	if cfg.MaxGrows <= 0 {
		cfg.MaxGrows = 3
	}
	scfg := cfg.Solver
	if scfg.CheckpointEvery <= 0 {
		scfg.CheckpointEvery = 10
	}
	userCk := scfg.OnCheckpoint
	userInt := scfg.Interrupt

	out := &SuperviseOutcome{Part: sys.Part, Dist: d}
	nodeOf := sys.NodeOf

	// The injector's Iter() is kept global across rebuilds: every fresh
	// injector is fast-forwarded by the kernels all its predecessors
	// executed, so plan iters keep meaning "kernel invocations since the
	// original arming".
	base := cfg.AdvanceKernels
	var in *fault.Injector
	arm := func(d *par.Dist) error {
		clamped := clampPlan(cfg.Plan, d.P, base)
		var err error
		if in, err = d.InjectFaults(clamped); err != nil {
			return err
		}
		if in != nil {
			in.Advance(base)
		}
		return nil
	}
	globalIter := func() int64 {
		if in != nil {
			return in.Iter()
		}
		return base
	}
	defer func() { out.Kernels = globalIter() }()
	if err := arm(d); err != nil {
		return out, fmt.Errorf("recover: arming fault plan: %w", err)
	}

	// Pending revives, consumed (or dropped past MaxGrows) in order.
	var pending []fault.Event
	if cfg.Plan != nil {
		for _, e := range cfg.Plan.Events {
			if e.Kind == fault.Revive && e.Iter > cfg.AdvanceKernels {
				pending = append(pending, e)
			}
		}
		sort.SliceStable(pending, func(a, b int) bool {
			if pending[a].Iter != pending[b].Iter {
				return pending[a].Iter < pending[b].Iter
			}
			return pending[a].PE < pending[b].PE
		})
	}

	reb := NewRebalancer(RebalanceConfig{})
	if cfg.Rebalance != nil {
		reb = NewRebalancer(*cfg.Rebalance)
	}
	var prevSnap *obs.Snapshot
	var loads []int64
	wantRebalance := false

	var last *solver.State
	scfg.OnCheckpoint = func(st *solver.State) {
		last = st
		if cfg.Store != nil {
			ck := &Checkpoint{
				MeshID:    cfg.MeshID,
				P:         int32(out.Part.P),
				ElemPE:    out.Part.ElemPE,
				Iter:      int64(st.Iter),
				Rho:       st.Rho,
				X:         st.X,
				R:         st.R,
				PDir:      st.P,
				FaultIter: globalIter(),
			}
			if p := clampPlan(cfg.Plan, out.Part.P, globalIter()); p != nil {
				ck.FaultPlan = p.String()
			}
			if _, err := cfg.Store.Save(ck); err != nil {
				ckptErrors.Add(1)
			}
		}
		if userCk != nil {
			userCk(st)
		}
	}
	scfg.Interrupt = func(iter int) bool {
		due := len(pending) > 0 && pending[0].Iter <= globalIter()
		if cfg.Rebalance != nil {
			cur := obs.Default.Snapshot()
			if w, ok := analyze.FromSnapshots(cur, prevSnap); ok && len(w.ComputeNS) >= out.Part.P {
				// The accumulator registry never shrinks; trim to width.
				perPE := w.ComputeNS[:out.Part.P]
				im := analyze.ImbalanceOf(perPE)
				out.FinalLambda = im.Lambda
				if reb.Observe(im) {
					wantRebalance = true
					loads = append(loads[:0], perPE...)
				}
			}
			prevSnap = cur
		}
		if cfg.Stop != nil && cfg.Stop() {
			return true
		}
		if userInt != nil && userInt(iter) {
			return true
		}
		return due || wantRebalance
	}

	// install swaps the live operator for r's and restores aggregation
	// and the fault plan on it. The old Dist must already be closed.
	install := func(r *Rebuilt) error {
		if nodeOf != nil {
			if err := r.Dist.SetAggregation(nodeOf); err != nil {
				r.Dist.Close()
				return fmt.Errorf("recover: reinstalling aggregation: %w", err)
			}
		}
		out.Dist, out.Part = r.Dist, r.Partition
		if err := arm(r.Dist); err != nil {
			return fmt.Errorf("recover: re-arming fault plan: %w", err)
		}
		return nil
	}

	for {
		op := par.Operator{D: out.Dist, Shift: sys.Shift, MassNode: sys.MassNode}
		res, err := solver.CG(op, b, x, scfg)
		out.Result = res
		if err == nil {
			return out, nil
		}

		if errors.Is(err, solver.ErrInterrupted) {
			if cfg.Stop != nil && cfg.Stop() {
				// The caller asked to stop; hand back the partial state
				// instead of resuming past the interrupt.
				return out, err
			}
			// Consume every due revive, oldest first.
			for len(pending) > 0 && pending[0].Iter <= globalIter() {
				ev := pending[0]
				pending = pending[1:]
				if out.Grows >= cfg.MaxGrows {
					continue
				}
				slot := ev.PE
				if slot > out.Part.P {
					slot = out.Part.P
				}
				obs.RecordFlight(obs.FlightRecovery, "recover.revive", slot, ev.Iter, 0)
				base = globalIter()
				grown, gerr := Grow(sys.Mesh, sys.Material, out.Part, slot)
				if gerr != nil {
					return out, fmt.Errorf("recover: growing onto revived PE %d: %w", slot, gerr)
				}
				out.Dist.Close() // healthy but superseded
				if nodeOf != nil {
					// The revived PE takes its donor's physical node; the
					// donor id translates back to the pre-grow numbering
					// the current map answers in.
					preDonor := int32(grown.Donor)
					if grown.Donor > slot {
						preDonor--
					}
					nodeOf = GrowNodeOf(nodeOf, slot, nodeOf(preDonor))
				}
				if ierr := install(grown); ierr != nil {
					return out, ierr
				}
				out.Grows++
				out.RevivedPEs = append(out.RevivedPEs, slot)
				if cfg.Rebalance != nil {
					// The width changed; restart the analysis window so the
					// first post-grow observation is not polluted by stale
					// accumulator history.
					prevSnap = obs.Default.Snapshot()
				}
			}
			if wantRebalance {
				wantRebalance = false
				if len(loads) == out.Part.P {
					base = globalIter()
					moved, moves, rerr := Rebalance(sys.Mesh, sys.Material, out.Part, loads, reb.cfg.MaxMoves)
					if rerr != nil {
						return out, fmt.Errorf("recover: rebalancing: %w", rerr)
					}
					if moves > 0 {
						out.Dist.Close()
						if ierr := install(moved); ierr != nil {
							return out, ierr
						}
						out.Migrations += moves
						// Per-PE history predates the new layout; start the
						// next window fresh.
						prevSnap = obs.Default.Snapshot()
					}
				}
			}
		} else if cfg.Replace != nil {
			dead, killed := DeadPE(err)
			if !killed && errors.Is(err, par.ErrPoisoned) {
				killed, dead = true, -1
			}
			if !killed || last == nil {
				return out, err
			}
			base = globalIter()
			out.Dist.Close() // poisoned; release its PE goroutines
			fresh, rerr := cfg.Replace(dead, last.Iter)
			if rerr != nil {
				return out, fmt.Errorf("recover: replacing dead worker after %w: %w", err, rerr)
			}
			out.Dist = fresh
			if aerr := arm(fresh); aerr != nil {
				return out, fmt.Errorf("recover: re-arming fault plan: %w", aerr)
			}
		} else {
			dead, killed := DeadPE(err)
			if !killed || out.Shrinks >= cfg.MaxShrinks || out.Part.P <= 1 {
				return out, err
			}
			base = globalIter()
			shrunk, serr := Shrink(sys.Mesh, sys.Material, out.Part, dead)
			if serr != nil {
				return out, fmt.Errorf("recover: shrinking after %v: %w", err, serr)
			}
			out.Dist.Close() // poisoned; release its PE goroutines
			if nodeOf != nil {
				nodeOf = ShrinkNodeOf(nodeOf, dead)
			}
			if ierr := install(shrunk); ierr != nil {
				return out, ierr
			}
			out.Shrinks++
			out.DeadPEs = append(out.DeadPEs, dead)
			if cfg.Rebalance != nil {
				prevSnap = obs.Default.Snapshot() // width changed; restart the window
			}
		}
		// Resume from the last consistent checkpoint; when a kill struck
		// before the first snapshot, restart cold from x, which CG left
		// at its last full iterate.
		scfg.Resume = last
		resumeCount.Add(1)
	}
}
