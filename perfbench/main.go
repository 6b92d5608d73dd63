// Command perfbench is the served-solve benchmark. It runs the
// internal/serve engine the way cmd/quaked configures it (default
// serve.Config, telemetry on, span tracer off) behind serve.NewMux on
// a loopback listener, drives it with closed-loop HTTP clients, checks
// every answer, and prints one workload's end-to-end metrics.
//
// With --trace 1 it also replays the served pipeline itself, calling
// each layer's public functions with the engine's inputs, shift,
// tolerance and checkpoint period under spans kept in memory, and
// prints the per-layer ledger instead.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload warm --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer or a workload
// that does not do what its name says makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	iq "repro/internal/quake"
)

// setupSamples is the number of separate engine start-ups whose median
// is setup_s. Each runs in its own process so every one pays the first
// mesh generation, which the process-wide mesh cache hides after the
// first.
const setupSamples = 3

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	workdir    string
	setupChild bool
}

func main() {
	opt := options{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all (side by side)")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: every rhs seed of the run is drawn from it")
	fs.IntVar(&opt.seconds, "seconds", 30, "timed window in seconds")
	fs.IntVar(&opt.trace, "trace", 0, "1 reports the per-layer ledger of a traced replay instead of the end-to-end metrics")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for journals, checkpoints and the Chrome trace")
	fs.BoolVar(&opt.setupChild, "setup-child", false, "internal: time one engine start-up and print it")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	_, known := workloads[opt.workload]
	if (!known && opt.workload != "all") || opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload "+strings.Join(workloadNames(), "|")+"|all, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if opt.setupChild {
		s, err := setupOnce(workloads[opt.workload], opt.seed, opt.workdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			os.Exit(1)
		}
		fmt.Printf("{\"setup_s\": %.9g}\n", s)
		return
	}
	ok, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is one workload's measured run.
type result struct {
	wl       workload
	tally    tally
	problems []string // workload sanity violations
	endToEnd metrics
	perLayer metrics
	notes    []string
}

func (r *result) correct() bool { return r.tally.failed == 0 && len(r.problems) == 0 }

func run(opt options, out io.Writer) (bool, error) {
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = []string{"warm", "cold", "durable"}
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(out, "provenance: %s\n", provenance(opt))
	var results []*result
	for _, name := range names {
		r, err := measure(workloads[name], opt, out)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, r)
	}
	printTable(out, results, opt.trace == 1 || len(results) > 1)

	final := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for _, r := range results {
		final.Correct = final.Correct && r.correct()
		final.Attempted += r.tally.attempted
		final.Failed += r.tally.failed
		ms := r.endToEnd
		if opt.trace == 1 {
			ms = r.perLayer
		}
		for k, v := range ms {
			if len(results) > 1 {
				k = r.wl.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(line))
	return final.Correct, nil
}

// measure runs one workload: set-up samples, the harness's own build
// and reference answers, a warm-up, the timed served window and, with
// tracing, the replayed ledger.
func measure(wl workload, opt options, out io.Writer) (*result, error) {
	res := &result{wl: wl, endToEnd: metrics{}, perLayer: metrics{}}
	work, err := os.MkdirTemp(opt.workdir, "run-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	setups, err := setupTimes(wl, opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s: set-up %v s over %d engine start-ups\n", wl.name, round3(setups), len(setups))

	// The harness's direct build of the tuple, on a privately generated
	// mesh: the fingerprints every answer must carry, the assembled K
	// for the sequential cross-check, and the reference answers.
	off := newTracer()
	t0 := time.Now()
	scen, err := iq.ByName(scenarioName)
	if err != nil {
		return nil, err
	}
	m, err := scen.Build()
	if err != nil {
		return nil, err
	}
	meshGen := time.Since(t0)
	h, err := buildReplica(off, m, pes())
	if err != nil {
		return nil, fmt.Errorf("harness build: %w", err)
	}
	defer h.close()
	want := expect{tol: requestTol, fp: h.fp, migrations: -1}
	src := newRequestSource(wl, opt.seed)
	if wl.durable {
		want.migrations = 1
		want.solution = map[int64]uint64{}
		for _, s := range src.pool {
			a, err := h.solve(s, nil)
			if err != nil {
				return nil, fmt.Errorf("reference solve: %w", err)
			}
			want.solution[s] = a.solutionFP
		}
	}

	s, err := startServer(wl.config(filepath.Join(work, "journal")), wl.clients)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if v := verdict(s.solve(src.next()), want); v != "" {
		return nil, fmt.Errorf("warm-up request failed: %s", v)
	}

	served := time.Duration(opt.seconds) * time.Second
	if opt.trace == 1 {
		served /= 2 // the replay gets the other half
	}
	w, err := drive(s, wl, src, served)
	if err != nil {
		return nil, err
	}
	peak := memPeakMB()
	var checked outcome // the first correct answer, if any
	for _, o := range w.outcomes {
		v := verdict(o, want)
		res.tally.add(v)
		if v == "" && checked.res == nil {
			checked = o
		}
	}
	for _, reason := range res.tally.reasons {
		fmt.Fprintf(out, "%s: FAILED %s\n", wl.name, reason)
	}
	res.endToEnd = endToEnd(w, res, setups, peak)
	res.sanity(w)

	// One answer's norm against a sequential solve on the globally
	// assembled K: no partition, no distributed operator, no engine.
	if o := checked; o.res != nil {
		norm, err := sequentialNorm(h.sys.K, h.sys.MassNode, o.seed)
		if err != nil {
			return nil, fmt.Errorf("sequential solve: %w", err)
		}
		if rel := math.Abs(o.res.SolutionNorm-norm) / norm; !(rel <= normTol) {
			res.tally.failed++
			res.tally.reasons = append(res.tally.reasons, fmt.Sprintf("solution_norm %.12g for seed %d, sequential %.12g", o.res.SolutionNorm, o.seed, norm))
			fmt.Fprintf(out, "%s: FAILED solution_norm of seed %d differs from the sequential solve by %.3g\n", wl.name, o.seed, rel)
		} else {
			res.notes = append(res.notes, fmt.Sprintf("seed %d: served ‖x‖ matches the sequential solve on fem.Assemble's K to %.2g", o.seed, rel))
		}
	}

	if opt.trace == 1 {
		if wl.durable {
			h.ckptDir = filepath.Join(work, "replay-ckpt")
		}
		if err := replayLedger(wl, opt, h, w, served, res, out); err != nil {
			return nil, err
		}
		res.perLayer.set("mesh.generate_ms", ms(meshGen), "ms")
	}
	return res, nil
}

// normTol bounds the relative gap between a served solution norm and
// the sequential solve's. Both stop at relative residual requestTol,
// so their iterates may differ by up to about κ·requestTol; the bound
// leaves room for the operator's conditioning.
const normTol = 1e-6

// endToEnd computes the user-visible metrics of a served window.
func endToEnd(w window, res *result, setups []float64, peakMB float64) metrics {
	var lat []float64
	for _, o := range w.outcomes {
		if o.res != nil {
			lat = append(lat, o.wallMS)
		}
	}
	ok := res.tally.attempted - res.tally.failed
	p, tv, beyond := tail(lat)
	res.notes = append(res.notes, fmt.Sprintf("request_ms.tail is p%d of %d samples (%d beyond it); host steal %.1f%% during the window", p, len(lat), beyond, 100*w.steal))
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("request_ms.p50", median(lat), "ms")
	m.set("request_ms.tail", tv, "ms")
	m.set("throughput_rps", float64(ok)/w.elapsed.Seconds(), "1/s")
	m.set("cpu_ms_per_request", ms(w.cpu)/float64(max(1, ok)), "ms")
	m.set("mem_peak_mb", peakMB, "MB")
	return m
}

// The served counters a workload's claims are checked against.
func counterRates(w window) (hitRatio, spawns, migrations, saves, journalBytes float64) {
	c := w.delta.Counters
	n := float64(max(1, len(w.outcomes)))
	if look := c["serve.cache.hits"] + c["serve.cache.misses"]; look > 0 {
		hitRatio = float64(c["serve.cache.hits"]) / float64(look)
	}
	return hitRatio,
		float64(c["serve.pool.spawns"]) / n,
		float64(c["serve.job.migrations"]) / n,
		float64(c["recover.checkpoint.writes"]) / n,
		w.delta.Gauges["serve.job.journal.bytes"] / n
}

// sanity checks that the workload did what its name says: the cache
// hit ratio it claims, checkpoints and migrations only where it is
// durable, and no worker built on the warm path.
func (r *result) sanity(w window) {
	hit, spawns, migr, saves, _ := counterRates(w)
	if hit != r.wl.hitRatio {
		r.problems = append(r.problems, fmt.Sprintf("serve.cache.hit_ratio %.3g, workload claims %g", hit, r.wl.hitRatio))
	}
	if r.wl.durable != (saves > 0) {
		r.problems = append(r.problems, fmt.Sprintf("recover.saves_per_request %.3g on a durable=%v workload", saves, r.wl.durable))
	}
	want := 0.0
	if r.wl.durable {
		want = 1
	}
	if migr != want {
		r.problems = append(r.problems, fmt.Sprintf("serve.job.migrations_per_request %.3g, want %g", migr, want))
	}
	if r.wl.name == "warm" && spawns != 0 {
		r.problems = append(r.problems, fmt.Sprintf("warm requests built %.3g workers per request", spawns))
	}
}

// setupOnce starts an engine and listener and answers one request of
// the workload, returning the seconds from engine construction to the
// answer.
func setupOnce(wl workload, seed int64, workdir string) (float64, error) {
	dir, err := os.MkdirTemp(workdir, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	s, err := startServer(wl.config(filepath.Join(dir, "journal")), wl.clients)
	if err != nil {
		return 0, err
	}
	defer s.close()
	o := s.solve(newRequestSource(wl, seed).next())
	elapsed := time.Since(start).Seconds()
	if o.err != nil || o.res == nil || !o.res.Converged || !o.res.Certified {
		return 0, fmt.Errorf("warm-up request failed: status %d, %v", o.status, o.err)
	}
	return elapsed, nil
}

// setupTimes runs setupSamples engine start-ups, each in a fresh
// process so each pays the first mesh generation.
func setupTimes(wl workload, opt options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", wl.name,
			"--seed", fmt.Sprint(opt.seed+int64(i)), "--workdir", opt.workdir)
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		var v struct {
			Setup float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		out = append(out, v.Setup)
	}
	return out, nil
}

// memPeakMB is the process's peak resident set (VmHWM).
func memPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// provenance records what produced the numbers.
func provenance(opt options) string {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	p := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "dirty": dirty, "seed": opt.seed,
		"tuple": fmt.Sprintf("%s/p%d/%s tol=%g", scenarioName, pes(), methodName, requestTol),
	}
	data, _ := json.Marshal(p) // a map of plain values always marshals
	return string(data)
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(int(v*1000+0.5)) / 1000
	}
	return out
}
