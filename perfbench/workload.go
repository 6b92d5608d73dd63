package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/serve"
)

// The served tuple: the smallest scenario, partitioned by recursive
// coordinate bisection across the host's width, and the answer
// tolerance every request asks for.
const (
	scenarioName = "sf10"
	methodName   = "rcb"
	requestTol   = 1e-8
	// killIter is the kernel dispatch at which a durable request's
	// fault plan kills PE 1: past the iteration-10 and -20 checkpoints,
	// so the job migrates and resumes from iteration 20.
	killIter = 25
	// durableSeeds is the size of the durable workload's rhs seed pool;
	// each seed gets an unfaulted reference solve during set-up.
	durableSeeds = 4
)

// pes is the served partition width: the host's CPU count, at least 2
// so a durable request has a PE to kill besides PE 0.
func pes() int { return max(2, runtime.NumCPU()) }

// workload is one traffic mix. Every workload is closed-loop.
type workload struct {
	name    string
	clients int
	// fresh sends every request to a freshly built engine behind the
	// same listener, so the artifact cache is always empty.
	fresh bool
	// durable journals jobs to disk and makes every request kill a PE
	// mid-solve with migrate recovery.
	durable bool
	// hitRatio is the artifact-cache hit ratio the workload must show.
	hitRatio float64
}

var workloads = map[string]workload{
	"warm":    {name: "warm", clients: 1, hitRatio: 1},
	"cold":    {name: "cold", clients: 1, fresh: true, hitRatio: 0},
	"durable": {name: "durable", clients: min(2, runtime.NumCPU()), durable: true, hitRatio: 1},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// config is the engine configuration: quaked's defaults, plus the
// journal directory on the durable workload.
func (wl workload) config(journalDir string) serve.Config {
	if wl.durable {
		return serve.Config{JournalDir: journalDir}
	}
	return serve.Config{}
}

// request is the wire request for one rhs seed.
func (wl workload) request(seed int64) serve.SolveRequest {
	r := serve.SolveRequest{Scenario: scenarioName, PEs: pes(), Method: methodName, RHSSeed: seed, Tol: requestTol}
	if wl.durable {
		r.Faults = fmt.Sprintf("kill:pe=1,iter=%d", killIter)
		r.Recovery = serve.RecoveryMigrate
	}
	return r
}

// requestSource hands out the requests of one run, concurrency-safe.
// Seeds come from the workload seed: warm and cold draw a fresh
// nonzero rhs seed for every request, never repeating within the run,
// so no result cache could answer one; durable cycles a small pool
// whose reference answers were computed during set-up.
type requestSource struct {
	wl   workload
	mu   sync.Mutex
	rng  *rand.Rand
	seen map[int64]bool
	pool []int64
	n    int
}

func newRequestSource(wl workload, seed int64) *requestSource {
	src := &requestSource{wl: wl, rng: rand.New(rand.NewSource(seed)), seen: map[int64]bool{}}
	if wl.durable {
		for len(src.pool) < durableSeeds {
			src.pool = append(src.pool, src.fresh())
		}
	}
	return src
}

// fresh draws an rhs seed not handed out before.
func (s *requestSource) fresh() int64 {
	for {
		v := s.rng.Int63()
		if v != 0 && !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// nextSeed returns the next request's rhs seed.
func (s *requestSource) nextSeed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if len(s.pool) > 0 {
		return s.pool[(s.n-1)%len(s.pool)]
	}
	return s.fresh()
}

func (s *requestSource) next() serve.SolveRequest { return s.wl.request(s.nextSeed()) }
