// Package obs is the telemetry substrate of the reproduction: a
// dependency-free, concurrency-safe metrics registry (counters, gauges,
// power-of-two-bucket histograms) plus a span tracer that emits Chrome
// trace_event JSON (see trace.go). The paper's whole argument rests on
// measured per-phase behavior — compute time F·T_f versus an exchange
// split into block latency B_max·T_l and wire time C_max·T_w — so every
// stage of the pipeline reports here: mesh generation, partitioning,
// the goroutine-PE SMVP phases, the Spark98 kernels, the CG solver, and
// the DSM/network simulators.
//
// Telemetry is off by default and gated by one global atomic flag, so
// instrumented hot loops cost a single predictable branch when
// disabled. Instrument sites should resolve their metric pointers once
// (at operator construction, not per call) and then call Add/Observe
// unconditionally; the no-op path is a load and a branch.
//
// Metric names are dotted paths, lowercase, with per-PE metrics
// suffixed ".pe<i>" (e.g. "par.exchange.bytes.pe3"). The registry
// snapshot marshals to JSON with sorted keys, so identical runs produce
// byte-identical snapshots.
package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the global metrics switch. Tracing has its own activation
// (a non-nil active tracer); see trace.go.
var enabled atomic.Bool

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns metric collection on or off, globally.
func SetEnabled(on bool) { enabled.Store(on) }

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n when telemetry is enabled. A nil
// counter is a no-op, so optional instrumentation needs no guards.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v when telemetry is enabled. A nil gauge is a no-op.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the bucket count: bucket 0 holds zero (and negative)
// observations, bucket k≥1 holds values in [2^(k-1), 2^k).
const histBuckets = 65

// Histogram counts non-negative int64 observations in fixed
// power-of-two buckets — a natural fit for message sizes in bytes,
// per-PE block counts, and phase durations in nanoseconds, all of
// which the paper characterizes by order of magnitude. Safe for
// concurrent use, lock-free, and allocation-free on the Observe path.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v when telemetry is enabled. Negative values land in
// the zero bucket. A nil histogram is a no-op.
func (h *Histogram) Observe(v int64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (zero before any observation;
// negative observations do not lower it).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Bucket is one non-empty histogram bucket in a snapshot. Le is the
// exclusive upper bound (a power of two; 1 for the zero bucket).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is the serializable state of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (hs HistogramSnapshot) Mean() float64 {
	if hs.Count == 0 {
		return 0
	}
	return float64(hs.Sum) / float64(hs.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the power-of-two
// buckets by linear interpolation inside the bucket holding the target
// rank. The estimate is exact to within one octave — the resolution the
// log₂ buckets buy for zero hot-path cost — and the top estimate is
// clamped to the recorded Max, so Quantile(1) is exact.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	if hs.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hs.Count)
	var cum int64
	for _, b := range hs.Buckets {
		next := cum + b.Count
		if float64(next) >= rank {
			// Bucket [lo, hi) holds the rank; interpolate on position.
			hi := float64(b.Le)
			lo := hi / 2
			if b.Le <= 1 {
				lo = 0
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			v := lo + frac*(hi-lo)
			if hs.Max > 0 && v > float64(hs.Max) {
				v = float64(hs.Max)
			}
			return v
		}
		cum = next
	}
	return float64(hs.Max)
}

// Sub returns the histogram delta since prev: the observations recorded
// between the two snapshots. Max is this snapshot's (a running maximum
// cannot be differenced).
func (hs HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: hs.Count - prev.Count, Sum: hs.Sum - prev.Sum, Max: hs.Max}
	old := make(map[uint64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		old[b.Le] = b.Count
	}
	for _, b := range hs.Buckets {
		if n := b.Count - old[b.Le]; n != 0 {
			out.Buckets = append(out.Buckets, Bucket{Le: b.Le, Count: n})
		}
	}
	return out
}

// Registry holds named metrics. Metrics are created on first use and
// live for the registry's lifetime; instrument sites should cache the
// returned pointers rather than re-resolving names in hot loops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	accums   map[string]*PEAccum
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		accums:   make(map[string]*PEAccum),
	}
}

// Default is the process-wide registry all package-level helpers use.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// GetCounter resolves a counter in the default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetGauge resolves a gauge in the default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// GetHistogram resolves a histogram in the default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// Reset drops every metric in the registry. Intended for tests and for
// CLIs that take several independent measurements in one process.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
	r.accums = make(map[string]*PEAccum)
}

// Snapshot is a point-in-time copy of a registry's metrics. Maps
// marshal with sorted keys, so equal states produce identical JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	PEAccums   map[string]PEAccumSnapshot   `json:"pe_accums,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		// Count is the total of the buckets as read, so a snapshot taken
		// while Observe calls race it still has buckets summing to Count.
		hs := HistogramSnapshot{Sum: h.sum.Load(), Max: h.max.Load()}
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			hs.Count += n
			le := uint64(1)
			if i > 0 {
				le = 1 << uint(i)
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: n})
		}
		s.Histograms[name] = hs
	}
	if len(r.accums) > 0 {
		s.PEAccums = make(map[string]PEAccumSnapshot, len(r.accums))
		for name, a := range r.accums {
			s.PEAccums[name] = a.Snapshot()
		}
	}
	return s
}

// Sub returns the delta snapshot: counters, histograms, and per-PE
// accumulators record what happened strictly between prev and s, which
// is how a caller isolates one solve (or one iteration window) from a
// long-lived process's cumulative registry. Gauges are last-value-wins
// and keep s's values.
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, hs := range s.Histograms {
		out.Histograms[name] = hs.Sub(prev.Histograms[name])
	}
	if len(s.PEAccums) > 0 {
		out.PEAccums = make(map[string]PEAccumSnapshot, len(s.PEAccums))
		for name, as := range s.PEAccums {
			out.PEAccums[name] = as.Sub(prev.PEAccums[name])
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// CounterNames returns the sorted names of counters matching the given
// prefix ("" matches all).
func (s *Snapshot) CounterNames(prefix string) []string {
	var names []string
	for name := range s.Counters {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

var expvarOnce sync.Once

// PublishExpvar exposes the default registry's snapshot under the
// expvar key "obs" (visible at /debug/vars on any server that mounts
// expvar). Safe to call more than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any { return Default.Snapshot() }))
	})
}
