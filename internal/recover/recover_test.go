package recover

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/solver"
)

// watchdog bounds every recovery path: a kill must surface, shrink,
// and resume well within it, never hang a barrier.
const watchdog = 60 * time.Second

type fixture struct {
	m   *mesh.Mesh
	mat *material.Model
	sys *fem.System
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cfg := octree.Config{Origin: geom.V(0, 0, 0), CubeSize: 1, Nx: 2, Ny: 2, Nz: 1, MaxDepth: 3}
	h := func(p geom.Vec3) float64 {
		return math.Max(0.12, 0.35*p.Dist(geom.V(1, 1, 0)))
	}
	tr, err := octree.Build(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.FromTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	mat := material.SanFernando()
	mat.BasinCenter = geom.V(1, 1, 0)
	mat.BasinSemi = geom.V(0.8, 0.7, 0.6)
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, mat: mat, sys: sys}
}

func (f *fixture) partition(t testing.TB, p int) *partition.Partition {
	t.Helper()
	pt, err := partition.PartitionMesh(f.m, p, partition.RCB, 7)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func (f *fixture) dist(t testing.TB, pt *partition.Partition) *par.Dist {
	t.Helper()
	pr, err := partition.Analyze(f.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := par.NewDist(f.m, f.mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (f *fixture) rhs() []float64 {
	n := 3 * f.m.NumNodes()
	rng := rand.New(rand.NewSource(23))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

// TestShrinkPartition pins the remap invariants: the dead PE's
// elements land on survivors, every survivor keeps its (renumbered)
// subdomain, the result validates, and the procedure is deterministic.
func TestShrinkPartition(t *testing.T) {
	f := newFixture(t)
	pt := f.partition(t, 8)
	const dead = 3
	spt, err := ShrinkPartition(f.m, pt, dead)
	if err != nil {
		t.Fatal(err)
	}
	if spt.P != 7 {
		t.Fatalf("shrunk P = %d, want 7", spt.P)
	}
	if err := spt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Surviving assignments are preserved modulo the id compaction.
	for e, old := range pt.ElemPE {
		if int(old) == dead {
			continue
		}
		want := old
		if int(old) > dead {
			want--
		}
		if spt.ElemPE[e] != want {
			t.Fatalf("element %d moved from surviving PE %d to %d", e, old, spt.ElemPE[e])
		}
	}
	// Determinism.
	again, err := ShrinkPartition(f.m, pt, dead)
	if err != nil {
		t.Fatal(err)
	}
	for e := range spt.ElemPE {
		if spt.ElemPE[e] != again.ElemPE[e] {
			t.Fatalf("shrink is nondeterministic at element %d", e)
		}
	}
	// Edge and error cases.
	if _, err := ShrinkPartition(f.m, pt, 8); err == nil {
		t.Fatal("out-of-range dead PE accepted")
	}
	if _, err := ShrinkPartition(f.m, &partition.Partition{P: 1, ElemPE: make([]int32, f.m.NumElems())}, 0); err == nil {
		t.Fatal("shrinking a 1-PE partition accepted")
	}
}

// TestKillMidSolveConverges is the tentpole acceptance test: a CG
// solve that loses a PE to a kill fault mid-iteration must complete on
// the surviving PEs and meet the same residual tolerance as the
// fault-free reference. The final residual is certified against the
// true residual of the *flat, full-width* reference operator, so the
// shrunk solve cannot grade its own homework.
func TestKillMidSolveConverges(t *testing.T) {
	f := newFixture(t)
	const tol = 1e-10
	b := f.rhs()
	n := len(b)

	// Fault-free reference.
	refPt := f.partition(t, 8)
	refD := f.dist(t, refPt)
	defer refD.Close()
	ref := make([]float64, n)
	refRes, err := solver.CG(par.Operator{D: refD, Shift: 20, MassNode: f.sys.MassNode}, b, ref, solver.Config{MaxIter: 6 * n, Tol: tol})
	if err != nil || !refRes.Converged {
		t.Fatalf("reference solve: converged=%v err=%v", refRes != nil && refRes.Converged, err)
	}

	pt := f.partition(t, 8)
	d := f.dist(t, pt)
	x := make([]float64, n)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
	out := superviseFixtureSolve(t, d, sys, b, x, SuperviseConfig{
		Solver: solver.Config{MaxIter: 6 * n, Tol: tol, CheckpointEvery: 5},
		Plan:   mustPlan(t, "kill:pe=5,iter=25"),
	})
	defer out.Dist.Close()
	if out.Shrinks != 1 || len(out.DeadPEs) != 1 || out.DeadPEs[0] != 5 {
		t.Fatalf("recovery path: shrinks=%d dead=%v", out.Shrinks, out.DeadPEs)
	}
	if out.Part.P != 7 || out.Dist.P != 7 {
		t.Fatalf("survivor width: part %d, dist %d, want 7", out.Part.P, out.Dist.P)
	}
	if !out.Result.Converged {
		t.Fatalf("recovered solve did not converge: %+v", out.Result)
	}

	// Certify ‖b − A·x‖/‖b‖ ≤ tol on the independent full-width operator.
	certify(t, f, refD, b, x, tol)
}

// TestAggregatedDistRecoverable covers the ErrPoisoned interop
// satellite: a kill on an *aggregated* Dist must also shrink cleanly,
// the recomposed node map must install on the rebuilt p−1 Dist, and
// the rebuilt Dist must pass the flat-vs-aggregated bit-identity check
// at the reduced width.
func TestAggregatedDistRecoverable(t *testing.T) {
	f := newFixture(t)
	b := f.rhs()
	n := len(b)
	pt := f.partition(t, 8)
	d := f.dist(t, pt)
	nodeOf := comm.ContiguousNodes(2)
	if err := d.SetAggregation(nodeOf); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode, NodeOf: nodeOf}
	out := superviseFixtureSolve(t, d, sys, b, x, SuperviseConfig{
		Solver: solver.Config{MaxIter: 6 * n, Tol: 1e-10, CheckpointEvery: 5},
		Plan:   mustPlan(t, "kill:pe=2,iter=12"),
	})
	defer out.Dist.Close()
	if out.Shrinks != 1 || out.Dist.P != 7 {
		t.Fatalf("recovery path: shrinks=%d width=%d", out.Shrinks, out.Dist.P)
	}
	if _, _, enabled := out.Dist.AggregationStats(); !enabled {
		t.Fatal("aggregation was not reinstalled on the rebuilt Dist")
	}

	// Bit-identical flat vs aggregated SMVP on the rebuilt 7-PE Dist.
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(float64(i))
	}
	agg := make([]float64, n)
	if _, err := out.Dist.SMVP(agg, xs); err != nil {
		t.Fatal(err)
	}
	if err := out.Dist.SetAggregation(nil); err != nil {
		t.Fatal(err)
	}
	flat := make([]float64, n)
	if _, err := out.Dist.SMVP(flat, xs); err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if flat[i] != agg[i] {
			t.Fatalf("rebuilt Dist flat vs aggregated differ at %d: %x vs %x", i, flat[i], agg[i])
		}
	}
}

// TestSolvePropagatesSoftwareFaults: a plain injected panic is not a
// kill, so Supervise without a Replace policy must not shrink — the
// poisoned error propagates for the caller's full-width retry policy.
func TestSolvePropagatesSoftwareFaults(t *testing.T) {
	f := newFixture(t)
	b := f.rhs()
	pt := f.partition(t, 4)
	d := f.dist(t, pt)
	defer d.Close()
	x := make([]float64, len(b))
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
	out, err := Supervise(d, sys, b, x, SuperviseConfig{
		Solver: solver.Config{MaxIter: 100, Tol: 1e-10},
		Plan:   mustPlan(t, "panic:pe=1,iter=3"),
	})
	if err == nil {
		t.Fatal("software fault did not propagate")
	}
	if !errors.Is(err, par.ErrPoisoned) {
		t.Fatalf("propagated error does not wrap ErrPoisoned: %v", err)
	}
	if out.Shrinks != 0 {
		t.Fatalf("software fault triggered %d shrinks", out.Shrinks)
	}
	if _, killed := DeadPE(err); killed {
		t.Fatal("DeadPE misclassified a software fault")
	}
}

// TestShrinkNodeOfComposition: the recomposed map answers in the
// compacted numbering by translating back through every dead PE.
func TestShrinkNodeOfComposition(t *testing.T) {
	base := comm.ContiguousNodes(2) // 0,0,1,1,2,2,...
	m1 := ShrinkNodeOf(base, 2)     // old ids: 0,1,3,4,5,...
	want1 := []int32{0, 0, 1, 2, 2}
	for pe, w := range want1 {
		if got := m1(int32(pe)); got != w {
			t.Fatalf("after one shrink, nodeOf(%d) = %d, want %d", pe, got, w)
		}
	}
	m2 := ShrinkNodeOf(m1, 0) // old ids: 1,3,4,5,...
	want2 := []int32{0, 1, 2, 2}
	for pe, w := range want2 {
		if got := m2(int32(pe)); got != w {
			t.Fatalf("after two shrinks, nodeOf(%d) = %d, want %d", pe, got, w)
		}
	}
}
