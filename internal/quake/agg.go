package quake

// Node-size sweep of the two-level exchange (comm.Aggregate) on a
// scenario: the experiment behind cmd/quakenet's -agg mode. For each
// node size the flat schedule is fused into per-node-pair blocks and
// replayed over a contended torus of nodes, yielding the
// blocks-vs-words tradeoff table — the modern answer (node-aware
// aggregation) to the paper's block-latency problem.

import (
	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/report"
)

// AggSweep partitions the scenario's mesh onto p PEs with the given
// method and evaluates the two-level exchange at each node size,
// replaying both the flat and the fused schedules over contended tori
// (cfg applies to both; the torus shape follows the replayed schedule's
// endpoint count). Node size 1 is worth including in nodeSizes: it
// reproduces the flat exchange and anchors the table.
func AggSweep(s Scenario, p int, method partition.Method, nodeSizes []int, cfg network.Config) ([]report.AggregationRow, error) {
	m, err := s.Mesh()
	if err != nil {
		return nil, err
	}
	pt, err := partition.PartitionMesh(m, p, method, 1)
	if err != nil {
		return nil, err
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return nil, err
	}
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		return nil, err
	}
	peTorus, err := network.NewTorus(p)
	if err != nil {
		return nil, err
	}
	t3e := machine.T3E()
	flat, err := network.Simulate(sched, t3e, peTorus, cfg)
	if err != nil {
		return nil, err
	}
	flatBlocks := sched.TotalBlocks()

	rows := make([]report.AggregationRow, 0, len(nodeSizes))
	for _, ns := range nodeSizes {
		a, err := comm.Aggregate(sched, comm.ContiguousNodes(ns))
		if err != nil {
			return nil, err
		}
		nodeTorus, err := network.NewTorus(a.NumNodes)
		if err != nil {
			return nil, err
		}
		res, err := network.SimulateAggregated(a, t3e, machine.OnNode(), nodeTorus, cfg)
		if err != nil {
			return nil, err
		}
		c, b := a.InterCB()
		rows = append(rows, report.AggregationRow{
			NodeSize:     ns,
			Nodes:        a.NumNodes,
			FlatBmax:     pr.Bmax(),
			InterBmax:    a.InterBmax(),
			FlatBlocks:   int64(flatBlocks),
			InterBlocks:  int64(a.Internode.TotalBlocks()),
			PayloadWords: a.PayloadWords(),
			CopiedWords:  a.CopiedWords(),
			Beta:         model.BetaOf(c, b),
			FlatComm:     flat.CommTime,
			AggComm:      res.CommTime,
		})
	}
	return rows, nil
}
