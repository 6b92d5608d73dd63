package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunHTTP drives a live solve with -http armed and queries every
// observability endpoint while the run is up: Prometheus text
// /metrics, the JSON snapshot, expvar, the flight ring, and pprof. The
// run holds the server open until the last probe is done, so a run
// that finishes quickly cannot turn a probe into "connection refused".
func TestRunHTTP(t *testing.T) {
	opt := base(60, 4)
	opt.http = "127.0.0.1:0"
	opt.httpReady = make(chan string, 1)
	opt.httpHold = make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(opt.httpHold) }) })

	done := make(chan error, 1)
	go func() { done <- run(opt) }()

	var addr string
	select {
	case addr = <-opt.httpReady:
	case err := <-done:
		t.Fatalf("run finished before the HTTP server came up: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for -http server")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Prometheus text format, with live solver counters in it.
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "# TYPE ") {
		t.Errorf("/metrics: code=%d, not Prometheus text", code)
	}
	// JSON snapshot parses back into an obs.Snapshot.
	if code, body := get("/metrics.json"); code != 200 {
		t.Errorf("/metrics.json: code=%d", code)
	} else {
		var s obs.Snapshot
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Errorf("/metrics.json: %v", err)
		}
	}
	// expvar with the registry published under "obs".
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, `"obs"`) {
		t.Errorf("/debug/vars: code=%d, missing obs key", code)
	}
	// Flight ring serves as JSON.
	if code, body := get("/flight"); code != 200 || !strings.Contains(body, `"events"`) {
		t.Errorf("/flight: code=%d", code)
	}
	// pprof index and a cheap profile.
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
	if code, _ := get("/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Errorf("/debug/pprof/goroutine: code=%d", code)
	}

	// Poll the snapshot until the per-PE phase telemetry shows up: the
	// distributed kernels register it, and the held server outlives the
	// run, so a fast run cannot end the poll early.
	deadline := time.After(60 * time.Second)
	for sawPhases := false; !sawPhases; {
		select {
		case <-deadline:
			t.Fatal("per-PE phase accumulators never appeared in /metrics.json")
		case <-time.After(5 * time.Millisecond):
		}
		_, body := get("/metrics.json")
		var s obs.Snapshot
		if json.Unmarshal([]byte(body), &s) == nil {
			_, sawPhases = s.PEAccums["par.phase.compute.ns"]
		}
	}

	release.Do(func() { close(opt.httpHold) })
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunFaultFlightDump runs a kill-plan recovery with -flight armed
// and asserts the dump exists and holds fault + recovery events.
func TestRunFaultFlightDump(t *testing.T) {
	dir := t.TempDir()
	opt := base(20, 4)
	opt.faults = "kill:pe=2,iter=6"
	opt.checkpoint = filepath.Join(dir, "ck")
	opt.every = 2
	opt.flight = filepath.Join(dir, "flight.trace.json")
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(opt.flight)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	var dump struct {
		Reason string `json:"reason"`
		Events []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
			PE   int    `json:"pe"`
		} `json:"events"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight dump invalid JSON: %v", err)
	}
	var sawSpan, sawFault bool
	for _, e := range dump.Events {
		switch e.Kind {
		case "span":
			sawSpan = true
		case "fault", "recovery":
			sawFault = true
		}
	}
	if !sawSpan || !sawFault {
		names := make([]string, 0, len(dump.Events))
		for _, e := range dump.Events {
			names = append(names, fmt.Sprintf("%s:%s", e.Kind, e.Name))
		}
		t.Errorf("dump missing span=%v fault/recovery=%v events; got %v", sawSpan, sawFault, names)
	}
}
