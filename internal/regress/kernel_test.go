package regress

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
)

// TestKernelFusionLeavesPipelineUntouched is the kernel-fusion golden
// guard: folding the mass shift into the SMVP's gather is a pure
// scheduling change, so (1) the shifted operator must produce the
// bit-identical product vector the plain SMVP followed by a serial
// shift pass does, and (2) running it must not perturb any pipeline
// product upstream of the kernel — the mesh, the partition, and the
// re-derived exchange schedule hash exactly as before. Combined with
// TestGoldenFingerprints (which pins those hashes against the golden
// file), this proves a kernel change cannot silently leak into the
// partitioning or communication layers.
func TestKernelFusionLeavesPipelineUntouched(t *testing.T) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, 8, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		t.Fatal(err)
	}
	meshFP, partFP, schedFP := Mesh(m), Partition(pt), Schedule(sched)

	dist, err := par.NewDist(m, quake.Material(), pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	n := 3 * m.NumNodes()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)) * 0.5
	}
	sys, err := fem.Assemble(m, quake.Material())
	if err != nil {
		t.Fatal(err)
	}
	const shift = 20
	y := make([]float64, n)
	yf := make([]float64, n)
	if _, err := dist.SMVP(y, x); err != nil {
		t.Fatal(err)
	}
	for i, mass := range sys.MassNode {
		f := shift * mass
		y[3*i] += f * x[3*i]
		y[3*i+1] += f * x[3*i+1]
		y[3*i+2] += f * x[3*i+2]
	}
	if err := (par.Operator{D: dist, Shift: shift, MassNode: sys.MassNode}).Apply(yf, x); err != nil {
		t.Fatal(err)
	}
	if Vector(y) != Vector(yf) {
		t.Error("shifted-gather Apply product is not bit-identical to SMVP plus the serial shift")
	}

	// Re-derive the schedule from a fresh analysis after the kernels ran:
	// every upstream fingerprint must be exactly what it was.
	pr2, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := comm.FromMatrix(pr2.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if Mesh(m) != meshFP {
		t.Error("mesh fingerprint drifted after kernel runs")
	}
	if Partition(pt) != partFP {
		t.Error("partition fingerprint drifted after kernel runs")
	}
	if Schedule(sched2) != schedFP {
		t.Error("re-derived schedule fingerprint drifted after kernel runs")
	}
}
