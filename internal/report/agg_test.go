package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func renderToString(t *testing.T, tab *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestPhaseSummary(t *testing.T) {
	// The profile a traced aggregated SMVP run produces: the two-level
	// exchange adds the par.smvp.gather phase next to the classic ones.
	stats := []obs.PhaseStat{
		{Name: "par.smvp.compute", Count: 64, Total: 640 * time.Microsecond, Max: 15 * time.Microsecond, Tracks: 8},
		{Name: "par.smvp.gather", Count: 8, Total: 80 * time.Microsecond, Max: 12 * time.Microsecond, Tracks: 2},
		{Name: "par.smvp.accumulate", Count: 0, Total: 0, Max: 0, Tracks: 0},
	}
	out := renderToString(t, PhaseSummary("phases", stats))
	for _, want := range []string{"phase", "count", "tracks", "total", "max", "mean",
		"par.smvp.gather", "10 µs"} { // mean of the gather row: 80µs / 8
		if !strings.Contains(out, want) {
			t.Errorf("PhaseSummary missing %q:\n%s", want, out)
		}
	}
	// The zero-count row must render (mean guarded against divide by
	// zero) rather than panic or vanish.
	if !strings.Contains(out, "par.smvp.accumulate") {
		t.Errorf("zero-count phase dropped:\n%s", out)
	}
}

func TestAggregationSummaryAnalytic(t *testing.T) {
	// No replay times anywhere: the time columns must be omitted.
	rows := []AggregationRow{
		{NodeSize: 1, Nodes: 16, FlatBmax: 9, InterBmax: 9, FlatBlocks: 120, InterBlocks: 120, PayloadWords: 5000},
		{NodeSize: 4, Nodes: 4, FlatBmax: 9, InterBmax: 3, FlatBlocks: 120, InterBlocks: 12, PayloadWords: 5000, CopiedWords: 2500, Beta: 1.25},
	}
	out := renderToString(t, AggregationSummary("tradeoff", rows))
	for _, want := range []string{"node size", "fused B_max", "copied words", "copy overhead", "β",
		"0.5", // 2500/5000
		"1.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("analytic table missing %q:\n%s", want, out)
		}
	}
	for _, reject := range []string{"exchange", "vs flat"} {
		if strings.Contains(out, reject) {
			t.Errorf("analytic table has time column %q:\n%s", reject, out)
		}
	}
}

func TestAggregationSummaryTimed(t *testing.T) {
	rows := []AggregationRow{
		{NodeSize: 1, Nodes: 8, FlatBmax: 7, InterBmax: 7, FlatBlocks: 40, InterBlocks: 40,
			PayloadWords: 900, Beta: 1, FlatComm: 200e-6, AggComm: 200e-6},
		{NodeSize: 8, Nodes: 1, FlatBmax: 7, FlatBlocks: 40,
			PayloadWords: 900, CopiedWords: 900, Beta: 1, FlatComm: 200e-6, AggComm: 50e-6},
		// A row with a missing flat anchor renders "-" instead of a ratio.
		{NodeSize: 2, Nodes: 4, FlatBmax: 7, InterBmax: 4, FlatBlocks: 40, InterBlocks: 10,
			PayloadWords: 900, CopiedWords: 300, Beta: 1.1, AggComm: 120e-6},
	}
	out := renderToString(t, AggregationSummary("tradeoff", rows))
	for _, want := range []string{"exchange", "vs flat",
		"1.000", // flat anchor ratio
		"0.250", // 50µs / 200µs
		"50 µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("timed table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(strings.TrimRight(last, " "), "-") {
		t.Errorf("missing flat anchor should render '-' ratio, got %q", last)
	}
}
