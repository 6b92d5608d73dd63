package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/serve"
)

// server is one engine (or, on a fresh-engine workload, a succession
// of engines) behind serve.NewMux on a loopback listener, configured
// as cmd/quaked configures it: default serve.Config, telemetry on.
type server struct {
	cfg      serve.Config
	eng      *serve.Engine
	mux      atomic.Pointer[http.ServeMux]
	url      string
	shutdown func(context.Context) error
	client   *http.Client
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.Load().ServeHTTP(w, r) }

// startServer builds the engine and starts the listener. clients
// bounds the connections the benchmark's HTTP client may open.
func startServer(cfg serve.Config, clients int) (*server, error) {
	obs.SetEnabled(true)
	eng, err := serve.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	s := &server{cfg: cfg, eng: eng}
	s.mux.Store(serve.NewMux(eng))
	addr, shutdown, err := export.ServeWith("127.0.0.1:0", s)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url, s.shutdown = "http://"+addr, shutdown
	s.client = &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		},
	}
	return s, nil
}

// renew swaps a freshly built engine behind the same listener and
// closes the previous one, so the next request finds an empty artifact
// cache. Only a single-client workload may call it between requests.
func (s *server) renew() error {
	eng, err := serve.NewEngine(s.cfg)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	old := s.eng
	s.eng = eng
	s.mux.Store(serve.NewMux(eng))
	old.Close()
	return nil
}

// close stops the listener, drains it, and closes the engine.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.shutdown(ctx)
	s.client.CloseIdleConnections()
	s.eng.Close()
	return err
}

// solve posts one solve request and decodes the answer.
func (s *server) solve(req serve.SolveRequest) outcome {
	o := outcome{seed: req.RHSSeed}
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := s.client.Post(s.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.wallMS = ms(time.Since(start))
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return o
	}
	if o.status == http.StatusOK {
		o.res = &serve.SolveResult{}
		if err := json.Unmarshal(data, o.res); err != nil {
			o.err, o.res = fmt.Errorf("decoding answer: %w", err), nil
		}
	}
	return o
}

// metrics reads the process registry through the served /metrics.json.
func (s *server) metrics() (*obs.Snapshot, error) {
	resp, err := s.client.Get(s.url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: http %d", resp.StatusCode)
	}
	snap := &obs.Snapshot{}
	if err := json.NewDecoder(resp.Body).Decode(snap); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	return snap, nil
}

// window is one timed closed-loop run: every outcome, the wall from
// the first send to the last answer, the process CPU spent in it, and
// the registry delta across it.
type window struct {
	outcomes []outcome
	elapsed  time.Duration
	cpu      time.Duration
	delta    *obs.Snapshot
	// steal is the share of the host's CPU time the hypervisor gave to
	// other guests during the window, a diagnostic for noisy runs.
	steal float64
}

// drive runs wl's clients closed-loop against s for d: each client
// sends its next request when the previous answer arrives, and stops
// sending once d has passed (requests in flight then still complete
// and count).
func drive(s *server, wl workload, reqs *requestSource, d time.Duration) (window, error) {
	before, err := s.metrics()
	if err != nil {
		return window{}, err
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		renewErr error
		wg       sync.WaitGroup
	)
	cpu0 := cpuTime()
	steal0, total0 := hostSteal()
	start := time.Now()
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				if wl.fresh {
					if err := s.renew(); err != nil {
						mu.Lock()
						renewErr = err
						mu.Unlock()
						return
					}
				}
				o := s.solve(reqs.next())
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w := window{outcomes: outcomes, elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	if steal1, total1 := hostSteal(); total1 > total0 {
		w.steal = (steal1 - steal0) / (total1 - total0)
	}
	if renewErr != nil {
		return w, renewErr
	}
	after, err := s.metrics()
	if err != nil {
		return w, err
	}
	w.delta = after.Sub(before)
	w.delta.Gauges = gaugeDelta(after.Gauges, before.Gauges)
	return w, nil
}

// gaugeDelta differences last-value gauges; Snapshot.Sub keeps them
// absolute.
func gaugeDelta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the steal and total CPU ticks from /proc/stat (zero
// where the file or the field is missing).
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
