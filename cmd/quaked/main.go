// Command quaked is the warm-pool simulation service: a long-running
// HTTP/JSON server over internal/serve that caches mesh, partition,
// schedule, and assembly artifacts per (scenario, p, method, nodesize)
// tuple and keeps persistent-PE Dist runtimes warm between requests, so
// repeat solves skip every setup stage and go straight to CG.
//
// Usage:
//
//	quaked                          # serve on :8090
//	quaked -addr :9000 -warm 2 -max-concurrent 4
//	quaked -smoke                   # start, solve twice (cold + cached),
//	                                # assert the hit counter, shut down
//
// The service exposes the full observability surface (Prometheus
// /metrics, /metrics.json, /flight, expvar, pprof) on the same port;
// see docs/SERVICE.md for the endpoint reference.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/serve"
)

// options is the validated CLI configuration, kept separate from flag
// parsing so tests can drive run() directly.
type options struct {
	addr            string
	maxConcurrent   int
	maxQueue        int
	warm            int
	maxPEs          int
	maxIter         int
	maxDeadline     time.Duration
	checkpointEvery int
	// journalDir makes jobs durable: accepted solves are journaled
	// there and an engine restart on the same directory replays them.
	journalDir string
	// smoke runs the self-test instead of serving: two identical solves
	// against the live server (one cold, one cached), the cache-hit
	// counters asserted through /metrics.json, then a clean shutdown.
	smoke         bool
	smokeScenario string
	smokePEs      int
	// chaos runs the durability drill instead of serving: a solve with
	// a kill fault is submitted as a detached job, migrates off the
	// dead worker, the whole server is torn down mid-solve, and a fresh
	// engine on the same journal must replay and finish it — zero lost
	// jobs, asserted through the jobs API and the serve.job.* counters.
	chaos bool

	// ready, when non-nil, receives the bound address once the server
	// is up (non-blocking send). Tests use it to drive the endpoints.
	ready chan string
}

// parseOptions binds the flag set. Parse errors are returned after the
// FlagSet has printed usage to out.
func parseOptions(args []string, out io.Writer) (*options, error) {
	opt := &options{}
	fs := flag.NewFlagSet("quaked", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&opt.addr, "addr", ":8090", "listen address (':0' picks a free port)")
	fs.IntVar(&opt.maxConcurrent, "max-concurrent", 0, "solves executing at once (0 = GOMAXPROCS)")
	fs.IntVar(&opt.maxQueue, "max-queue", 0, "admitted solves waiting beyond the running ones (0 = default 8); overflow is refused with 429")
	fs.IntVar(&opt.warm, "warm", 1, "warm workers kept per cached artifact")
	fs.IntVar(&opt.maxPEs, "max-pes", 0, "per-request PE ceiling (0 = default 128)")
	fs.IntVar(&opt.maxIter, "max-iter", 0, "hard per-request iteration cap (0 = default 200000)")
	fs.DurationVar(&opt.maxDeadline, "max-deadline", 0, "per-request wall-budget ceiling, also the default budget (0 = 5m)")
	fs.IntVar(&opt.checkpointEvery, "checkpoint-every", 0, "solver checkpoint period in CG iterations (0 = default 10); also the progress-event and cancellation granularity")
	fs.StringVar(&opt.journalDir, "journal", "", "durable-job journal directory; a restart on the same directory replays accepted-but-unfinished jobs (empty = jobs are volatile)")
	fs.BoolVar(&opt.smoke, "smoke", false, "self-test: start the server, run one cold and one cached solve, assert the cache counters via /metrics.json, shut down")
	fs.StringVar(&opt.smokeScenario, "smoke-scenario", "sf10", "scenario the -smoke and -chaos solves use")
	fs.IntVar(&opt.smokePEs, "smoke-pes", 4, "PE count the -smoke and -chaos solves use")
	fs.BoolVar(&opt.chaos, "chaos", false, "durability drill: kill a worker mid-solve (job migrates), restart the engine mid-solve on the same journal, assert the job replays and completes with zero lost jobs")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(out, "quaked: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments")
	}
	return opt, nil
}

// validate enforces the cross-flag rules up front.
func (opt *options) validate() error {
	if opt.maxConcurrent < 0 {
		return fmt.Errorf("-max-concurrent must be >= 0, got %d", opt.maxConcurrent)
	}
	if opt.warm < 1 {
		return fmt.Errorf("-warm must be at least 1, got %d", opt.warm)
	}
	if (opt.smoke || opt.chaos) && opt.smokePEs < 1 {
		return fmt.Errorf("-smoke-pes must be at least 1, got %d", opt.smokePEs)
	}
	if opt.chaos && opt.smokePEs < 2 {
		return fmt.Errorf("-chaos needs at least 2 PEs to kill one, got %d", opt.smokePEs)
	}
	return nil
}

func main() {
	opt, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2) // the FlagSet already printed the problem and usage
	}
	if err := opt.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "quaked:", err)
		fmt.Fprintln(os.Stderr, "run 'quaked -h' for usage")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quaked:", err)
		os.Exit(1)
	}
}

// run starts the engine and server, then either serves until ctx is
// canceled (SIGINT/SIGTERM) or, with -smoke, exercises the server once
// and exits. Shutdown is graceful either way: the listener closes
// first, in-flight requests drain, then the warm pools are released.
func run(ctx context.Context, opt *options, out io.Writer) error {
	// A service without telemetry is undebuggable; the export surface
	// shares the listener, so enable the registry unconditionally.
	obs.SetEnabled(true)
	if opt.chaos {
		return chaos(opt, out)
	}
	eng, err := serve.NewEngine(serve.Config{
		MaxConcurrent:   opt.maxConcurrent,
		MaxQueue:        opt.maxQueue,
		WarmPool:        opt.warm,
		MaxPEs:          opt.maxPEs,
		MaxIter:         opt.maxIter,
		MaxDeadline:     opt.maxDeadline,
		CheckpointEvery: opt.checkpointEvery,
		JournalDir:      opt.journalDir,
	})
	if err != nil {
		return fmt.Errorf("-journal: %w", err)
	}
	defer eng.Close()

	addr, shutdown, err := export.ServeWith(opt.addr, serve.NewMux(eng))
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	fmt.Fprintf(out, "quaked: serving on http://%s/ (solves under /v1/, metrics under /metrics)\n", addr)
	if opt.ready != nil {
		select {
		case opt.ready <- addr:
		default:
		}
	}

	if opt.smoke {
		smokeErr := smoke(addr, opt, out)
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if smokeErr != nil {
			return fmt.Errorf("smoke: %w", smokeErr)
		}
		fmt.Fprintln(out, "quaked: smoke ok, shut down cleanly")
		return nil
	}

	<-ctx.Done()
	fmt.Fprintln(out, "quaked: signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(out, "quaked: shut down cleanly")
	return nil
}

// smoke drives the live server through the cache's happy path: the
// first solve cold-builds the artifacts, the second must be served from
// the cache — asserted both from the response's cache_hit field and
// from the serve.cache.{hits,misses} counters scraped off
// /metrics.json before and after. The counters are process-wide, so
// only their deltas belong to this smoke. Each solve reports the
// client-measured request wall (build included) beside the server's
// solve wall.
func smoke(addr string, opt *options, out io.Writer) error {
	base := "http://" + addr
	body := fmt.Sprintf(`{"scenario":%q,"pes":%d}`, opt.smokeScenario, opt.smokePEs)

	before, err := scrapeCounters(base)
	if err != nil {
		return err
	}
	var cold, warm serve.SolveResult
	t0 := time.Now()
	if err := postSolve(base, body, &cold); err != nil {
		return fmt.Errorf("cold solve: %w", err)
	}
	coldReq := time.Since(t0)
	if cold.CacheHit {
		return fmt.Errorf("first solve reported cache_hit=true; expected a cold build")
	}
	if !cold.Converged || !cold.Certified {
		return fmt.Errorf("cold solve: converged=%v certified=%v (cert residual %.3g)",
			cold.Converged, cold.Certified, cold.CertResidual)
	}
	t0 = time.Now()
	if err := postSolve(base, body, &warm); err != nil {
		return fmt.Errorf("cached solve: %w", err)
	}
	warmReq := time.Since(t0)
	if !warm.CacheHit {
		return fmt.Errorf("second identical solve reported cache_hit=false; expected a cache hit")
	}
	if warm.Fingerprints != cold.Fingerprints {
		return fmt.Errorf("cached solve served different artifacts: %+v vs %+v",
			warm.Fingerprints, cold.Fingerprints)
	}
	if warm.SolutionFP != cold.SolutionFP {
		return fmt.Errorf("cached solve diverged: solution fingerprint %x vs %x",
			warm.SolutionFP, cold.SolutionFP)
	}

	after, err := scrapeCounters(base)
	if err != nil {
		return err
	}
	hits := after["serve.cache.hits"] - before["serve.cache.hits"]
	misses := after["serve.cache.misses"] - before["serve.cache.misses"]
	if misses != 1 || hits < 1 {
		return fmt.Errorf("cache counters off: serve.cache.misses rose by %d (want 1), serve.cache.hits by %d (want >=1)", misses, hits)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Fprintf(out, "quaked: smoke %s/p%d cold %.0fms request / %.0fms solve (%d iters) cached %.0fms request / %.0fms solve (%d iters), hits=%d misses=%d\n",
		opt.smokeScenario, opt.smokePEs, ms(coldReq), cold.WallMS, cold.Iterations,
		ms(warmReq), warm.WallMS, warm.Iterations, hits, misses)
	return nil
}

// scrapeCounters reads the counter section of /metrics.json.
func scrapeCounters(base string) (map[string]int64, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := getJSON(base+"/metrics.json", &snap); err != nil {
		return nil, fmt.Errorf("scraping /metrics.json: %w", err)
	}
	return snap.Counters, nil
}

// chaos is the durability drill behind `make serve-chaos`: prove that
// neither a dead worker nor a dead process loses an accepted job.
//
// Phase 1 starts a journaled server, submits a detached solve armed
// with a kill fault and migrate recovery, waits until the job has
// migrated off the killed worker and written a durable checkpoint,
// then tears the whole server down mid-solve (the job parks in the
// journal). Phase 2 starts a fresh engine on the same journal
// directory and requires the replayed job to complete — converged,
// certified, resumed past its checkpoint rather than restarted — with
// every journaled job accounted for.
func chaos(opt *options, out io.Writer) error {
	dir := opt.journalDir
	if dir == "" {
		d, err := os.MkdirTemp("", "quaked-chaos-*")
		if err != nil {
			return fmt.Errorf("chaos journal dir: %w", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}
	cfg := serve.Config{
		MaxConcurrent:   opt.maxConcurrent,
		MaxQueue:        opt.maxQueue,
		WarmPool:        opt.warm,
		MaxPEs:          opt.maxPEs,
		MaxIter:         opt.maxIter,
		MaxDeadline:     opt.maxDeadline,
		JournalDir:      dir,
		CheckpointEvery: 5,
		// Pace the solver so the drill reliably catches the job
		// mid-flight for the forced restart.
		CheckpointDelay: 25 * time.Millisecond,
	}

	// Phase 1: migrate off a killed worker, then die mid-solve.
	eng, err := serve.NewEngine(cfg)
	if err != nil {
		return fmt.Errorf("chaos phase 1 engine: %w", err)
	}
	addr, shutdown, err := export.ServeWith("127.0.0.1:0", serve.NewMux(eng))
	if err != nil {
		eng.Close()
		return fmt.Errorf("chaos phase 1 server: %w", err)
	}
	base := "http://" + addr
	body := fmt.Sprintf(`{"scenario":%q,"pes":%d,"tol":1e-12,"faults":"kill:pe=1,iter=5","recovery":"migrate","detach":true,"idempotency_key":"chaos-drill"}`,
		opt.smokeScenario, opt.smokePEs)
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return fmt.Errorf("chaos submit: %w", err)
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || st.ID == "" {
		return fmt.Errorf("chaos submit: status %d, job %+v, err %v", resp.StatusCode, st, err)
	}
	fmt.Fprintf(out, "quaked: chaos job %s accepted on %s\n", st.ID, addr)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: job %s never migrated (last: %+v)", st.ID, st)
		}
		if st, err = getJob(base, st.ID); err != nil {
			return fmt.Errorf("chaos polling job: %w", err)
		}
		if st.State == serve.JobCompleted || st.State == serve.JobFailed || st.State == serve.JobCanceled {
			return fmt.Errorf("chaos: job %s reached %s before the forced restart — solve too fast for the drill", st.ID, st.State)
		}
		if st.Migrations >= 1 && st.CheckpointIter >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Fprintf(out, "quaked: chaos job migrated (attempts=%d migrations=%d ckpt_iter=%d), forcing restart mid-solve\n",
		st.Attempts, st.Migrations, st.CheckpointIter)
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	err = shutdown(sctx)
	cancel()
	if err != nil {
		return fmt.Errorf("chaos phase 1 shutdown: %w", err)
	}
	eng.Close()

	// Phase 2: a fresh engine on the same journal replays and finishes.
	cfg.CheckpointDelay = 0
	eng2, err := serve.NewEngine(cfg)
	if err != nil {
		return fmt.Errorf("chaos phase 2 engine: %w", err)
	}
	defer eng2.Close()
	addr2, shutdown2, err := export.ServeWith("127.0.0.1:0", serve.NewMux(eng2))
	if err != nil {
		return fmt.Errorf("chaos phase 2 server: %w", err)
	}
	base2 := "http://" + addr2
	deadline = time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: replayed job %s never finished (last: %+v)", st.ID, st)
		}
		if st, err = getJob(base2, st.ID); err != nil {
			return fmt.Errorf("chaos polling replayed job: %w", err)
		}
		if st.State == serve.JobCompleted || st.State == serve.JobFailed || st.State == serve.JobCanceled {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != serve.JobCompleted || !st.Replayed {
		return fmt.Errorf("chaos: replayed job ended %s (replayed=%v, error %q)", st.State, st.Replayed, st.Error)
	}
	if st.Result == nil || !st.Result.Converged || !st.Result.Certified {
		return fmt.Errorf("chaos: replayed job result %+v not converged+certified", st.Result)
	}

	// Zero lost jobs: everything the journal accepted is tracked and
	// finished, and the counters show a real migration, replay, and
	// checkpoint resume (no pre-checkpoint iterations re-run).
	var list struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if err := getJSON(base2+"/v1/jobs", &list); err != nil {
		return fmt.Errorf("chaos listing jobs: %w", err)
	}
	found := false
	for _, j := range list.Jobs {
		if j.ID == st.ID {
			found = true
		}
		if j.State != serve.JobCompleted {
			return fmt.Errorf("chaos: journaled job %s ended %s — a job was lost or stuck", j.ID, j.State)
		}
	}
	if !found {
		return fmt.Errorf("chaos: job %s missing from the restarted engine's job list", st.ID)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := getJSON(base2+"/metrics.json", &snap); err != nil {
		return fmt.Errorf("chaos scraping metrics: %w", err)
	}
	for _, c := range []string{"serve.job.migrations", "serve.job.requeued", "serve.job.replays", "serve.job.resumed_iters_saved"} {
		if snap.Counters[c] < 1 {
			return fmt.Errorf("chaos: counter %s = %d, want >= 1", c, snap.Counters[c])
		}
	}
	sctx2, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel2()
	if err := shutdown2(sctx2); err != nil {
		return fmt.Errorf("chaos phase 2 shutdown: %w", err)
	}
	fmt.Fprintf(out, "quaked: chaos ok — job %s survived 1 worker kill + 1 process restart (iters=%d, saved=%d, migrations=%d)\n",
		st.ID, st.Result.Iterations, snap.Counters["serve.job.resumed_iters_saved"], snap.Counters["serve.job.migrations"])
	return nil
}

// getJob fetches one job's status.
func getJob(base, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := getJSON(base+"/v1/jobs/"+id, &st)
	return st, err
}

// getJSON fetches and decodes one JSON endpoint.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postSolve runs one POST /v1/solve and decodes the result.
func postSolve(base, body string, res *serve.SolveResult) error {
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(res)
}
