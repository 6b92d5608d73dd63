package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/sparse"
)

// shiftedBCSR materializes K + σ·diag(M) as a plain BCSR matrix, the
// shift summed into the diagonal blocks, so a BCSROperator over it is
// SPD.
func shiftedBCSR(sys *fem.System, sigma float64) *sparse.BCSR {
	k := sys.K
	m := &sparse.BCSR{
		N:      k.N,
		RowOff: append([]int64(nil), k.RowOff...),
		Col:    append([]int32(nil), k.Col...),
		Val:    append([]float64(nil), k.Val...),
	}
	for i := 0; i < m.N; i++ {
		f := sigma * sys.MassNode[i]
		blk := [9]float64{f, 0, 0, 0, f, 0, 0, 0, f}
		m.AddBlock(int32(i), int32(i), &blk)
	}
	return m
}

func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// canonicalDot restates the package's reduction-order contract
// independently of its implementation: lane = index mod 4, lanes
// combined as (s0+s1)+(s2+s3).
func canonicalDot(a, b []float64) float64 {
	var s [4]float64
	for i := range a {
		s[i%4] += a[i] * b[i]
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// referenceCG is textbook preconditioned CG written as separate
// sweeps — x update, r update, ‖r‖, z = M⁻¹r, rᵀz, p update — with
// every reduction a canonicalDot over the finished vectors.
func referenceCG(t *testing.T, a Operator, b, x, prec []float64, maxIter int, tol float64) (iters int, rel float64) {
	t.Helper()
	n := len(b)
	r, z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	apply := func(y, v []float64) {
		if err := a.Apply(y, v); err != nil {
			t.Fatal(err)
		}
	}
	precondition := func() {
		for i := range z {
			z[i] = r[i]
			if prec != nil {
				z[i] = prec[i] * r[i]
			}
		}
	}
	apply(ap, x)
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	precondition()
	copy(p, z)
	rz := canonicalDot(r, z)
	normB := math.Sqrt(canonicalDot(b, b))
	for it := 0; it < maxIter; it++ {
		apply(ap, p)
		alpha := rz / canonicalDot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
		}
		for i := range r {
			r[i] -= alpha * ap[i]
		}
		rel = math.Sqrt(canonicalDot(r, r)) / normB
		if rel <= tol {
			return it + 1, rel
		}
		precondition()
		rzNew := canonicalDot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return maxIter, rel
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkUpdateSweep pins the update sweep against separate canonical
// sweeps on every tail length: identical x, r, z, ‖r‖² and ρ.
func checkUpdateSweep(t *testing.T, jacobi bool) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 37} {
		x, r, p, ap := randRHS(n, 1), randRHS(n, 2), randRHS(n, 3), randRHS(n, 4)
		var prec []float64
		z := make([]float64, n)
		if jacobi {
			prec = randRHS(n, 5)
		} else {
			z = r // the aliasing CG sets up without a preconditioner
		}
		const alpha = 0.37
		wx, wr := append([]float64(nil), x...), append([]float64(nil), r...)
		for i := range wx {
			wx[i] += alpha * p[i]
		}
		for i := range wr {
			wr[i] -= alpha * ap[i]
		}
		wz := wr
		if jacobi {
			wz = make([]float64, n)
			for i := range wz {
				wz[i] = prec[i] * wr[i]
			}
		}
		rn2, rz := update(x, r, z, p, ap, prec, alpha)
		sameBits(t, "x", x, wx)
		sameBits(t, "r", r, wr)
		sameBits(t, "z", z, wz)
		sameBits(t, "sums", []float64{rn2, rz, dot(r, z)}, []float64{canonicalDot(wr, wr), canonicalDot(wr, wz), canonicalDot(wr, wz)})
	}
}

// TestFusedBitIdenticalLocal is the strong certification of the single
// sweep-fused path: the update sweep equals separate canonical sweeps
// on every tail length, and a whole solve retraces textbook CG written
// as separate sweeps float for float — same iterate, same residual,
// same iteration count — with and without the Jacobi preconditioner.
// With self-healing armed (and nothing to heal) the audits scratch only
// in ap, so the iterate is again bit-identical to the plain solve.
func TestFusedBitIdenticalLocal(t *testing.T) {
	sys := buildSystem(t)
	a := BCSROperator{M: shiftedBCSR(sys, 10)}
	n := a.Dim()
	b := randRHS(n, 42)

	diag := make([]float64, n)
	for i := 0; i < a.M.N; i++ {
		blk := a.M.Block(int32(i), int32(i))
		diag[3*i] = 1 / blk[0]
		diag[3*i+1] = 1 / blk[4]
		diag[3*i+2] = 1 / blk[8]
	}

	for _, tc := range []struct {
		name string
		prec []float64
	}{{"plain", nil}, {"jacobi", diag}} {
		t.Run(tc.name, func(t *testing.T) {
			checkUpdateSweep(t, tc.prec != nil)
			x := make([]float64, n)
			res, err := CG(a, b, x, Config{MaxIter: 4 * n, Tol: 1e-10, Precondition: tc.prec})
			if err != nil {
				t.Fatal(err)
			}
			xr := make([]float64, n)
			iters, rel := referenceCG(t, a, b, xr, tc.prec, 4*n, 1e-10)
			if !res.Converged || res.Iterations != iters {
				t.Fatalf("converged %v after %d iterations, reference %d", res.Converged, res.Iterations, iters)
			}
			if math.Float64bits(res.Residual) != math.Float64bits(rel) {
				t.Fatalf("residual %x, reference %x", math.Float64bits(res.Residual), math.Float64bits(rel))
			}
			sameBits(t, "x", x, xr)
		})
	}

	t.Run("healing", func(t *testing.T) {
		x := make([]float64, n)
		plain, err := CG(a, b, x, Config{MaxIter: 4 * n, Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		xh := make([]float64, n)
		healed, err := CG(a, b, xh, Config{MaxIter: 4 * n, Tol: 1e-10, CheckEvery: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !healed.Converged || healed.Detections != 0 || healed.Iterations != plain.Iterations {
			t.Fatalf("healing solve: converged %v, %d detections, %d iterations (plain %d)",
				healed.Converged, healed.Detections, healed.Iterations, plain.Iterations)
		}
		sameBits(t, "x", xh, x)
		if healed.SMVPs <= plain.SMVPs {
			t.Errorf("audits ran no extra SMVPs: healing %d, plain %d", healed.SMVPs, plain.SMVPs)
		}
	})
}

// TestFusedShiftedTolerance: the matrix-free Shifted operator (K·x,
// then the mass shift) and the same operator with the shift fused into
// K's diagonal blocks produce products that differ in rounding only,
// so their solves agree to solve tolerance.
func TestFusedShiftedTolerance(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	n := a.Dim()
	b := randRHS(n, 7)

	xs := make([]float64, n)
	rs, err := CG(a, b, xs, Config{MaxIter: 4 * n, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	xm := make([]float64, n)
	rm, err := CG(BCSROperator{M: shiftedBCSR(sys, a.Sigma)}, b, xm, Config{MaxIter: 4 * n, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Converged || !rm.Converged {
		t.Fatalf("convergence: shifted %v, materialized %v", rs.Converged, rm.Converged)
	}
	// Same Krylov space, reorderings of O(machine eps): iteration counts
	// may differ by a step or two, solutions agree to solve tolerance.
	if d := rs.Iterations - rm.Iterations; d < -3 || d > 3 {
		t.Errorf("iteration counts far apart: shifted %d, materialized %d", rs.Iterations, rm.Iterations)
	}
	for i := range xs {
		if math.Abs(xs[i]-xm[i]) > 1e-6*(1+math.Abs(xs[i])) {
			t.Fatalf("x[%d]: shifted %g, materialized %g", i, xs[i], xm[i])
		}
	}
}

// applyOnly exposes only an operator's Apply and Dim, the way a tracing
// layer wraps the served operator.
type applyOnly struct{ Operator }

// TestFusedFallsBack: an operator wrapped to expose only Apply and Dim
// takes the one path the bare operator takes and retraces its solve bit
// for bit — no reduction order lives in the operator — with and without
// self-healing.
func TestFusedFallsBack(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	n := a.Dim()
	b := randRHS(n, 3)
	for _, cfg := range []Config{{MaxIter: 4 * n, Tol: 1e-8}, {MaxIter: 4 * n, Tol: 1e-8, CheckEvery: 5}} {
		x := make([]float64, n)
		bare, err := CG(a, b, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		xw := make([]float64, n)
		wrapped, err := CG(applyOnly{a}, b, xw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !wrapped.Converged || *wrapped != *bare {
			t.Fatalf("wrapped solve %+v, bare %+v", *wrapped, *bare)
		}
		sameBits(t, "x", xw, x)
	}
}
