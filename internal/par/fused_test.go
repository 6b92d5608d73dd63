package par

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/solver"
)

// serialShift is the distributed operator the way it was composed
// before the mass shift moved into the gather: a plain SMVP, then a
// serial y += (σ·m)·x pass on the caller's side.
type serialShift struct{ Operator }

func (o serialShift) Apply(y, x []float64) error {
	if _, err := o.D.SMVP(y, x); err != nil {
		return err
	}
	for i, m := range o.MassNode {
		f := o.Shift * m
		y[3*i] += f * x[3*i]
		y[3*i+1] += f * x[3*i+1]
		y[3*i+2] += f * x[3*i+2]
	}
	return nil
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestApplyMatchesSMVPShift pins the shifted gather: Operator.Apply is
// bit-identical to SMVP followed by the serial shift pass, at every
// width and under the flat exchange and every aggregation size, and an
// unshifted Operator is the plain SMVP.
func TestApplyMatchesSMVPShift(t *testing.T) {
	f := newFixture(t)
	for _, p := range []int{1, 2, 4, 13} {
		d, _ := f.dist(t, p, partition.RCB)
		n3 := 3 * d.GlobalNodes
		x := randVec(n3, int64(19+p))
		want := make([]float64, n3)
		if err := (serialShift{Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}}).Apply(want, x); err != nil {
			t.Fatal(err)
		}
		plain := make([]float64, n3)
		if _, err := d.SMVP(plain, x); err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 1, 2, 3} { // 0 = flat exchange
			if size > p {
				continue
			}
			var nodeOf func(int32) int32
			if size > 0 {
				nodeOf = comm.ContiguousNodes(size)
			}
			if err := d.SetAggregation(nodeOf); err != nil {
				t.Fatal(err)
			}
			y := make([]float64, n3)
			if err := (Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}).Apply(y, x); err != nil {
				t.Fatalf("p=%d size %d: %v", p, size, err)
			}
			sameBits(t, "shifted y", y, want)
			if err := (Operator{D: d}).Apply(y, x); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "unshifted y", y, plain)
		}
		if err := d.SetAggregation(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFusedZeroAlloc extends the runtime's steady-state guarantee to
// the shifted gather: Operator.Apply hands the mass diagonal over with
// x and y, so it performs zero heap allocations per op, metrics off and
// on, flat and aggregated.
func TestFusedZeroAlloc(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = float64(i%5) * 0.5
	}
	run := func() {
		if err := op.Apply(y, x); err != nil {
			t.Fatal(err)
		}
	}
	for _, aggregated := range []bool{false, true} {
		if aggregated {
			if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
				t.Fatal(err)
			}
		}
		for _, metrics := range []bool{false, true} {
			prev := obs.Enabled()
			obs.SetEnabled(metrics)
			run() // steady state: buffers and goroutines already live
			if avg := testing.AllocsPerRun(10, run); avg != 0 {
				t.Errorf("Apply (agg=%v, metrics=%v): %.1f allocs/op, want 0", aggregated, metrics, avg)
			}
			obs.SetEnabled(prev)
		}
	}
}

// TestFusedDistCGMatchesUnfused is the end-to-end property test: CG on
// the operator with the shift fused into the gather retraces CG on the
// serially shifted operator bit for bit, and so does CG on the flat
// and the aggregated exchange schedule — the SMVP products agree
// exactly and the solver's reduction order does not depend on the
// operator.
func TestFusedDistCGMatchesUnfused(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 8, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	n := op.Dim()
	b := randVec(n, 31)
	cfg := solver.Config{MaxIter: 2 * n, Tol: 1e-9}
	xu := make([]float64, n)
	ru, err := solver.CG(serialShift{op}, b, xu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ru.Converged {
		t.Fatalf("serially shifted solve did not converge: %d iters, residual %g", ru.Iterations, ru.Residual)
	}
	for _, size := range []int{0, 2} {
		var nodeOf func(int32) int32
		if size > 0 {
			nodeOf = comm.ContiguousNodes(size)
		}
		if err := d.SetAggregation(nodeOf); err != nil {
			t.Fatal(err)
		}
		xf := make([]float64, n)
		rf, err := solver.CG(op, b, xf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *rf != *ru {
			t.Fatalf("size %d: result %+v, serially shifted %+v", size, *rf, *ru)
		}
		sameBits(t, "x", xf, xu)
	}
}

// TestFusedDistCGHealing: the single path composes with self-healing —
// audits and convergence certification use ap as scratch, never z, so
// the update sweep's precomputed (z, ρ) survive them.
func TestFusedDistCGHealing(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	n := op.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.29)
	}
	x := make([]float64, n)
	res, err := solver.CG(op, b, x, solver.Config{MaxIter: 2 * n, Tol: 1e-8, CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("healing solve did not converge: %d iters, residual %g", res.Iterations, res.Residual)
	}
	if res.Detections != 0 {
		t.Errorf("healthy solve reported %d detections", res.Detections)
	}
}

// TestApplyErrors: Apply mirrors SMVP's error contract — dimension
// checks, a mass diagonal of the wrong length, a poisoned Dist, a
// closed Dist — and advances an armed injector by exactly one kernel
// per call.
func TestApplyErrors(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 2, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	y, x := vecs(d)
	if err := op.Apply(make([]float64, 3), x); err == nil {
		t.Error("short y accepted")
	}
	if err := (Operator{D: d, Shift: 20, MassNode: f.sys.MassNode[1:]}).Apply(y, x); err == nil {
		t.Error("short mass diagonal accepted")
	}

	in, err := d.InjectFaults(mustPlan(t, "panic:pe=1,iter=3"))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 2; k++ {
		if err := op.Apply(y, x); err != nil {
			t.Fatalf("kernel %d: %v", k, err)
		}
		if in.Iter() != k {
			t.Fatalf("after %d applies the injector is at kernel %d", k, in.Iter())
		}
	}
	if err := op.Apply(y, x); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("faulted Apply: %v, want ErrPoisoned", err)
	}
	if err := op.Apply(y, x); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Apply after poison: %v, want ErrPoisoned", err)
	}

	d2, _ := f.dist(t, 2, partition.RCB)
	d2.Close()
	if err := (Operator{D: d2, Shift: 20, MassNode: f.sys.MassNode}).Apply(y, x); err == nil {
		t.Error("Apply on closed Dist succeeded")
	}
}
