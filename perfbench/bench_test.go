package main

import (
	"errors"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, p   int
		value  float64
		beyond int
	}{
		{n: 100, p: 90, value: 90, beyond: 10},  // p91 would leave 9 beyond
		{n: 120, p: 91, value: 110, beyond: 10}, // rank ceil(109.2) = 110
		{n: 1000, p: 99, value: 990, beyond: 10},
		{n: 21, p: 52, value: 11, beyond: 10},
		{n: 12, p: 50, value: 6, beyond: 6}, // too few: falls back to p50
	} {
		p, v, beyond := tail(seq(tc.n))
		if p != tc.p || v != tc.value || beyond != tc.beyond {
			t.Errorf("n=%d: tail = p%d %g (%d beyond), want p%d %g (%d beyond)", tc.n, p, v, beyond, tc.p, tc.value, tc.beyond)
		}
		if beyond < minBeyondTail && p != 50 {
			t.Errorf("n=%d: p%d has only %d samples beyond it", tc.n, p, beyond)
		}
	}
	if p, v, beyond := tail(nil); p != 50 || v != 0 || beyond != 0 {
		t.Errorf("empty: p%d %g %d", p, v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
}

func TestFailAccounting(t *testing.T) {
	fp := serve.Fingerprints{Key: 1, Mesh: 2, Partition: 3, Schedule: 4}
	want := expect{tol: 1e-8, fp: fp, migrations: -1}
	good := func() *serve.SolveResult {
		return &serve.SolveResult{Converged: true, Certified: true, CertResidual: 5e-9, Fingerprints: fp, SolutionFP: 7}
	}
	uncertified := good()
	uncertified.Certified = false
	loose := good()
	loose.CertResidual = 2e-8
	nan := good()
	nan.CertResidual = math.NaN()
	wrongFP := good()
	wrongFP.Fingerprints.Schedule = 5
	unconverged := good()
	unconverged.Converged = false

	cases := []struct {
		name string
		o    outcome
		fail bool
	}{
		{"ok", outcome{status: http.StatusOK, res: good()}, false},
		{"429", outcome{status: http.StatusTooManyRequests}, true},
		{"transport", outcome{err: errors.New("connection reset")}, true},
		{"500", outcome{status: http.StatusInternalServerError}, true},
		{"uncertified", outcome{status: http.StatusOK, res: uncertified}, true},
		{"cert above tol", outcome{status: http.StatusOK, res: loose}, true},
		{"cert NaN", outcome{status: http.StatusOK, res: nan}, true},
		{"fingerprint mismatch", outcome{status: http.StatusOK, res: wrongFP}, true},
		{"not converged", outcome{status: http.StatusOK, res: unconverged}, true},
	}
	var tl tally
	wantFailed := 0
	for _, c := range cases {
		v := verdict(c.o, want)
		if (v != "") != c.fail {
			t.Errorf("%s: verdict %q, want failure=%v", c.name, v, c.fail)
		}
		if c.fail {
			wantFailed++
		}
		tl.add(v)
	}
	if tl.attempted != len(cases) || tl.failed != wantFailed {
		t.Errorf("tally %d/%d, want %d/%d", tl.failed, tl.attempted, wantFailed, len(cases))
	}
	if got, w := tl.failRatio(), float64(wantFailed)/float64(len(cases)); got != w {
		t.Errorf("fail ratio %g, want %g", got, w)
	}
	if len(tl.reasons) != keptReasons {
		t.Errorf("kept %d reasons, want %d", len(tl.reasons), keptReasons)
	}

	// The durable checks: exactly one migration and the reference
	// solution for the seed.
	durable := expect{tol: 1e-8, fp: fp, migrations: 1, solution: map[int64]uint64{9: 7}}
	migrated := good()
	migrated.Migrations = 1
	if v := verdict(outcome{seed: 9, status: http.StatusOK, res: migrated}, durable); v != "" {
		t.Errorf("migrated answer failed: %s", v)
	}
	if v := verdict(outcome{seed: 9, status: http.StatusOK, res: good()}, durable); v == "" {
		t.Error("an unmigrated durable answer passed")
	}
	other := good()
	other.Migrations, other.SolutionFP = 1, 8
	if v := verdict(outcome{seed: 9, status: http.StatusOK, res: other}, durable); v == "" {
		t.Error("a durable answer off the reference solution passed")
	}
}

// A synthetic request: 100 ms root; CG from 10 to 90 with two operator
// applications; each application has two PEs whose phases cover part
// of it; certification from 92 to 95.
func syntheticSpans() []span {
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	s := func(id, parent int, name string, pe int, a, b float64) span {
		return span{ID: id, Parent: parent, Name: name, PE: pe, Start: msd(a), End: msd(b)}
	}
	return []span{
		s(0, -1, rootSpan, -1, 0, 100),
		s(1, 0, "solver.cg", -1, 10, 90),
		s(2, 1, "par.apply", -1, 20, 40), // 20 ms wall
		s(3, 2, "par.compute", 0, 20, 30),
		s(4, 2, "par.comm", 0, 30, 32), // PE0: 12 ms
		s(5, 2, "par.compute", 1, 20, 34),
		s(6, 2, "par.comm", 1, 34, 35),   // PE1: 15 ms, the max
		s(7, 1, "par.apply", -1, 50, 60), // 10 ms wall
		s(8, 7, "par.compute", 0, 50, 56),
		s(9, 7, "par.comm", 0, 56, 58),
		s(10, 7, "par.compute", 1, 50, 55),
		s(11, 7, "par.comm", 1, 55, 59), // PE1: 9 ms, the max
		s(12, 0, "serve.certify", -1, 92, 95),
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLedgerArithmetic(t *testing.T) {
	spans := syntheticSpans()
	L := buildLedger(spans)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"request", L.RequestMS, 100},
		// Σ Apply wall minus Σ per-call max(compute + comm).
		{"par.dispatch_ms", L.SelfByName["par.apply"], (20 - 15) + (10 - 9)},
		{"par.smvp_ms", L.SpanMS["par.apply"], 30},
		// CG wall minus Σ Apply wall.
		{"solver.driver_ms", L.SelfByName["solver.cg"], 80 - 30},
		// Request wall minus everything a layer span covers.
		{"unaccounted_ms", L.Unaccounted, 100 - 80 - 3},
		{"par.compute_ms.max", L.ComputeMaxMS, 14 + 6},
		{"par.compute_ms.sum", L.ComputeSumMS, (10 + 14) + (6 + 5)},
		{"par.comm_ms.max", L.CommMaxMS, 2 + 4},
		{"self par", L.SelfMS["par"], 30},
		{"self solver", L.SelfMS["solver"], 50},
		{"self serve", L.SelfMS["serve"], 3},
		{"applies", L.Applies, 2},
	}
	for _, c := range checks {
		if !near(c.got, c.want) {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	var sum float64
	for _, v := range L.SelfMS {
		sum += v
	}
	if !near(sum+L.Unaccounted, L.RequestMS) {
		t.Errorf("ledger does not close: Σ self %g + unaccounted %g != request %g", sum, L.Unaccounted, L.RequestMS)
	}
}

func TestLedgerAveragesRequests(t *testing.T) {
	one := syntheticSpans()
	two := syntheticSpans()
	for i := range two {
		two[i].ID += len(one)
		if two[i].Parent >= 0 {
			two[i].Parent += len(one)
		}
		two[i].Req = 1
		two[i].Start += time.Second
		two[i].End += time.Second
	}
	// A span outside any request (set-up) is left out.
	setup := span{ID: 99, Parent: -1, Req: -1, Name: "par.newdist", PE: -1, End: time.Second}
	L := buildLedger(append(append(one, two...), setup))
	if L.Requests != 2 || !near(L.RequestMS, 100) || !near(L.SelfByName["par.apply"], 6) || L.SpanMS["par.newdist"] != 0 {
		t.Errorf("two identical requests: %d requests, %g ms, dispatch %g, newdist %g",
			L.Requests, L.RequestMS, L.SelfByName["par.apply"], L.SpanMS["par.newdist"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.on = true
	root := tr.begin(rootSpan)
	a := tr.begin("solver.cg")
	b := tr.begin("par.apply")
	tr.phase(b, "par.compute", 0, 0, time.Microsecond)
	tr.end(b)
	tr.end(a)
	tr.end(root)
	tr.on = false
	if id := tr.begin("ignored"); id != -1 || len(tr.spans) != 4 {
		t.Fatalf("tracer off recorded a span: id %d, %d spans", id, len(tr.spans))
	}
	if tr.spans[a].Parent != root || tr.spans[b].Parent != a || tr.spans[3].Parent != b || tr.spans[3].PE != 0 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if got := tr.spans[a].layer(); got != "solver" {
		t.Errorf("layer of solver.cg = %q", got)
	}
}

func TestRequestSource(t *testing.T) {
	a, b := newRequestSource(workloads["warm"], 7), newRequestSource(workloads["warm"], 7)
	seen := map[int64]bool{}
	for i := 0; i < 500; i++ {
		s := a.nextSeed()
		if s == 0 || seen[s] {
			t.Fatalf("seed %d repeated or zero at request %d", s, i)
		}
		seen[s] = true
		if s2 := b.nextSeed(); s2 != s {
			t.Fatalf("same workload seed gave %d and %d", s, s2)
		}
	}
	d := newRequestSource(workloads["durable"], 7)
	if len(d.pool) != durableSeeds {
		t.Fatalf("durable pool of %d seeds", len(d.pool))
	}
	for i := 0; i < 2*durableSeeds; i++ {
		r := d.next()
		if r.RHSSeed != d.pool[i%durableSeeds] || r.Recovery != serve.RecoveryMigrate || r.Faults == "" {
			t.Fatalf("durable request %d: %+v", i, r)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("durable request invalid: %v", err)
		}
	}
}
