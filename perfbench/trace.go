package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function (nothing inside the program is
// instrumented). Start and End are offsets from the tracer's epoch.
// The root span of a replayed request is named "request"; its self
// time is the part of the request no layer span covers.
type span struct {
	ID, Parent int // Parent is -1 for a root span
	Req        int // replayed request the span belongs to
	Name       string
	PE         int // -1 unless the span is one PE's phase
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the package a span's time is charged to: the prefix of its
// name before the first dot ("par.apply" → "par"). Root request spans
// belong to no layer.
func (s span) layer() string {
	if s.Name == rootSpan {
		return ""
	}
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

const rootSpan = "request"

// tracer keeps spans in memory for a single-threaded replay. While off
// it records nothing, so the same replay code runs untraced to measure
// the tracing overhead.
type tracer struct {
	epoch time.Time
	on    bool
	req   int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span as a child of the innermost open one and returns
// its id (-1 while tracing is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, PE: -1, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// phase records one PE's measured phase duration as a child of parent.
// The runtime reports per-PE durations but not start times, so the
// phase is placed at offset after the parent's start; for a PE's
// compute followed by its exchange the union of the placed phases
// covers exactly max over PEs of (compute + exchange).
func (t *tracer) phase(parent int, name string, pe int, offset, d time.Duration) {
	if parent < 0 {
		return
	}
	p := t.spans[parent]
	start := p.Start + offset
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: p.Req, Name: name, PE: pe, Start: start, End: start + d})
}

// selfTimes returns each span's duration minus the part of its
// interval covered by the union of its children.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var cur [2]time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			cur = v
		case v[0] <= cur[1]:
			cur[1] = max(cur[1], v[1])
		default:
			total += cur[1] - cur[0]
			cur = v
		}
	}
	return total + cur[1] - cur[0]
}

// ledger is the per-request mean decomposition of the traced replay:
// every layer's self time plus the root's uncovered remainder
// (Unaccounted) sums to the traced request wall, exactly, because the
// self times of a span tree whose sequential siblings do not overlap
// partition its root's interval. Parallel PE phase spans overlap one
// another; their union is charged instead of their sum.
type ledger struct {
	Requests    int
	RequestMS   float64            // mean traced request wall
	SelfMS      map[string]float64 // mean self time per layer
	Unaccounted float64            // mean root self time
	// SpanMS is the mean per-request total duration of each span name,
	// and SelfByName its mean self time; Count is the mean number of
	// spans of that name per request.
	SpanMS     map[string]float64
	SelfByName map[string]float64
	Count      map[string]float64
	// Per-PE phase aggregates over every par.apply span: Σ per call of
	// the max-PE compute, of the PE-summed compute and of the max-PE
	// exchange, per request; Applies is the mean call count.
	ComputeMaxMS, ComputeSumMS, CommMaxMS float64
	Applies                               float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// buildLedger folds spans into per-request means. Only requests with a
// root span count.
func buildLedger(spans []span) ledger {
	self := selfTimes(spans)
	L := ledger{SelfMS: map[string]float64{}, SpanMS: map[string]float64{}, SelfByName: map[string]float64{}, Count: map[string]float64{}}
	reqs := map[int]bool{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent < 0 && s.Name == rootSpan {
			reqs[s.Req] = true
		}
	}
	L.Requests = len(reqs)
	if L.Requests == 0 {
		return L
	}
	type phaseAgg struct{ compMax, compSum, commMax time.Duration }
	phases := map[int]*phaseAgg{}
	for _, s := range spans {
		if !reqs[s.Req] {
			continue
		}
		switch {
		case s.Name == rootSpan:
			L.RequestMS += ms(s.dur())
			L.Unaccounted += ms(self[s.ID])
		case s.PE >= 0:
			a := phases[s.Parent]
			if a == nil {
				a = &phaseAgg{}
				phases[s.Parent] = a
			}
			if s.Name == "par.compute" {
				a.compMax = max(a.compMax, s.dur())
				a.compSum += s.dur()
			} else {
				a.commMax = max(a.commMax, s.dur())
			}
		}
		if s.Name != rootSpan && s.PE < 0 {
			L.SelfMS[s.layer()] += ms(self[s.ID])
		}
		L.SpanMS[s.Name] += ms(s.dur())
		L.SelfByName[s.Name] += ms(self[s.ID])
		L.Count[s.Name]++
	}
	// PE phases run in parallel, so their durations overlap: the time
	// they account for is the part of the parent their union covers,
	// charged to the parent's layer.
	for id, a := range phases {
		p := byID[id]
		L.SelfMS[p.layer()] += ms(p.dur() - self[id])
		L.ComputeMaxMS += ms(a.compMax)
		L.ComputeSumMS += ms(a.compSum)
		L.CommMaxMS += ms(a.commMax)
	}
	n := float64(L.Requests)
	L.RequestMS /= n
	L.Unaccounted /= n
	L.ComputeMaxMS /= n
	L.ComputeSumMS /= n
	L.CommMaxMS /= n
	L.Applies = L.Count["par.apply"] / n
	for _, m := range []map[string]float64{L.SelfMS, L.SpanMS, L.SelfByName, L.Count} {
		for k := range m {
			m[k] /= n
		}
	}
	return L
}

// writeChromeTrace writes the spans of requests below maxReq as
// Chrome trace_event JSON: one complete ("X") event per span, the
// coordinator on tid 0 and PE phases on tid pe+1, with the span id, parent
// and request id in args.
func writeChromeTrace(path string, spans []span, maxReq int) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := []event{}
	for _, s := range spans {
		if s.Req >= maxReq {
			continue
		}
		cat := s.layer()
		if cat == "" {
			cat = rootSpan
		}
		evs = append(evs, event{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.PE + 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
