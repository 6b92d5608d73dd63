package quake

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/report"
)

// TestAggregationReducesInterBmaxSF5 is the headline acceptance check:
// on sf5 partitioned onto 64 PEs, grouping PEs onto nodes of 8 must
// cut the max per-PE inter-node block count below the flat B_max — the
// whole point of trading copied words for fused blocks.
func TestAggregationReducesInterBmaxSF5(t *testing.T) {
	m, err := SF5.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, 64, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := comm.Aggregate(s, comm.ContiguousNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(s); err != nil {
		t.Fatal(err)
	}
	if a.InterBmax() >= pr.Bmax() {
		t.Fatalf("sf5/p=64/nodesize=8: inter-node B_max %d not below flat B_max %d",
			a.InterBmax(), pr.Bmax())
	}
	t.Logf("sf5/p=64/nodesize=8: B_max %d -> %d, payload %d words, copied %d words",
		pr.Bmax(), a.InterBmax(), a.PayloadWords(), a.CopiedWords())
}

// TestAggSweepSF10 exercises the -agg experiment end to end on the
// cheap scenario: rows come back in order, node size 1 reproduces the
// flat exchange exactly, larger nodes monotonically shrink the fused
// block totals while paying copied words, and the rendered table
// carries the tradeoff columns.
func TestAggSweepSF10(t *testing.T) {
	rows, err := AggSweep(SF10, 16, partition.RCB, []int{1, 2, 4, 8}, network.Config{HopLatency: 100e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	id := rows[0]
	if id.NodeSize != 1 || id.Nodes != 16 {
		t.Fatalf("first row is not the flat anchor: %+v", id)
	}
	if id.CopiedWords != 0 || id.InterBmax != id.FlatBmax || id.InterBlocks != id.FlatBlocks {
		t.Fatalf("node size 1 does not reproduce the flat exchange: %+v", id)
	}
	if id.AggComm != id.FlatComm {
		t.Fatalf("node size 1 replay %g != flat replay %g", id.AggComm, id.FlatComm)
	}
	for i := 1; i < len(rows); i++ {
		r, prev := rows[i], rows[i-1]
		if r.InterBlocks > prev.InterBlocks {
			t.Errorf("node size %d: fused blocks grew %d -> %d",
				r.NodeSize, prev.InterBlocks, r.InterBlocks)
		}
		if r.CopiedWords == 0 {
			t.Errorf("node size %d: no copied words despite grouping", r.NodeSize)
		}
		if r.PayloadWords != id.PayloadWords {
			t.Errorf("node size %d: payload changed %d -> %d",
				r.NodeSize, id.PayloadWords, r.PayloadWords)
		}
		if r.Beta < 1 || r.Beta >= 2 {
			t.Errorf("node size %d: β = %g out of [1,2)", r.NodeSize, r.Beta)
		}
	}
	var sb strings.Builder
	if err := report.AggregationSummary("agg sweep", rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, col := range []string{"fused B_max", "copied words", "vs flat"} {
		if !strings.Contains(out, col) {
			t.Errorf("rendered sweep table missing column %q:\n%s", col, out)
		}
	}
}
