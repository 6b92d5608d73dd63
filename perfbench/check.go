package main

import (
	"fmt"
	"net/http"

	"repro/internal/serve"
)

// expect is what a correct answer to one request looks like.
type expect struct {
	tol float64
	fp  serve.Fingerprints
	// migrations, when ≥ 0, is the exact migration count every answer
	// must report.
	migrations int
	// solution maps rhs seeds to the reference solution fingerprint an
	// answer for that seed must carry; seeds absent from it are not
	// compared.
	solution map[int64]uint64
}

// outcome is one request as the client saw it.
type outcome struct {
	seed   int64
	wallMS float64
	status int   // HTTP status; 0 when the transport failed
	err    error // transport or decode error
	res    *serve.SolveResult
}

// verdict returns why the outcome is a failure, or "" for a correct
// answer. Refusals (429), other HTTP errors, transport errors, and
// wrong or uncertified answers all fail.
func verdict(o outcome, want expect) string {
	switch {
	case o.err != nil:
		return fmt.Sprintf("transport: %v", o.err)
	case o.status == http.StatusTooManyRequests:
		return "refused: 429"
	case o.status != http.StatusOK:
		return fmt.Sprintf("http %d", o.status)
	case o.res == nil:
		return "no result"
	}
	r := o.res
	switch {
	case !r.Converged:
		return "not converged"
	case !r.Certified:
		return "not certified"
	case !(r.CertResidual <= want.tol): // also catches NaN
		return fmt.Sprintf("cert_residual %.3g above tol %.3g", r.CertResidual, want.tol)
	case r.Fingerprints != want.fp:
		return fmt.Sprintf("fingerprints %+v, harness built %+v", r.Fingerprints, want.fp)
	case want.migrations >= 0 && r.Migrations != want.migrations:
		return fmt.Sprintf("%d migrations, want %d", r.Migrations, want.migrations)
	}
	if fp, ok := want.solution[o.seed]; ok && r.SolutionFP != fp {
		return fmt.Sprintf("solution_fp %x for seed %d, reference %x", r.SolutionFP, o.seed, fp)
	}
	return ""
}

// tally counts attempted and failed requests and keeps the first few
// failure reasons for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

const keptReasons = 5

func (t *tally) add(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if len(t.reasons) < keptReasons {
		t.reasons = append(t.reasons, reason)
	}
}

// failRatio is failed over attempted (0 with nothing attempted).
func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
