package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// printTable prints every metric of every measured workload side by
// side, a workload per column, so a workload that does not do what
// its name says (a hit ratio that is not 1/0/1 on warm/cold/durable,
// checkpoints off durable, a worker built on the warm path) shows on
// the first read. A layer a workload never enters prints "-".
func printTable(out io.Writer, results []*result, layers bool) {
	e2e := []string{"setup_s", "request_ms.p50", "request_ms.tail", "throughput_rps", "cpu_ms_per_request", "mem_peak_mb"}
	var rows []string
	rows = append(rows, e2e...)
	rows = append(rows, "fail_ratio")
	if layers {
		seen := map[string]bool{}
		for _, r := range results {
			for k := range r.perLayer {
				if !seen[k] {
					seen[k] = true
					rows = append(rows, k)
				}
			}
		}
		sort.Strings(rows[len(e2e)+1:])
	}
	fmt.Fprintf(out, "\n%-36s %-6s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(out, " %14s", r.wl.name)
	}
	fmt.Fprintln(out)
	for _, name := range rows {
		unit := ""
		cells := make([]string, len(results))
		for i, r := range results {
			v, ok := r.endToEnd[name]
			if !ok {
				v, ok = r.perLayer[name]
			}
			switch {
			case name == "fail_ratio":
				cells[i], unit = fmt.Sprintf("%.4g", r.tally.failRatio()), "ratio"
			case !ok:
				cells[i] = "?"
			case v.Value == 0 && strings.HasSuffix(name, "_ms"):
				cells[i], unit = "-", v.Unit
			default:
				cells[i], unit = fmt.Sprintf("%.6g", v.Value), v.Unit
			}
		}
		fmt.Fprintf(out, "%-36s %-6s", name, unit)
		for _, c := range cells {
			fmt.Fprintf(out, " %14s", c)
		}
		fmt.Fprintln(out)
	}
	for _, r := range results {
		fmt.Fprintf(out, "%s: %d attempted, %d failed\n", r.wl.name, r.tally.attempted, r.tally.failed)
		for _, n := range r.notes {
			fmt.Fprintf(out, "%s: %s\n", r.wl.name, n)
		}
		for _, p := range r.problems {
			fmt.Fprintf(out, "%s: WORKLOAD CHECK FAILED: %s\n", r.wl.name, p)
		}
	}
}
