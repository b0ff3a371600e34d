// Package obs is the observability layer: a stdlib-only metrics registry
// (counters, gauges, fixed-bucket histograms) with Prometheus text-format
// exposition, plus a lightweight trace-event hook. The paper's workload is
// crowd-latency-bound — answers take seconds to days (§6.2), not CPU — so
// the instruments that matter are in-flight gauges and per-answer latency
// histograms, sampled live while a session serves traffic.
//
// All instruments are safe for concurrent use and cheap on the hot path:
// a Counter increment is one atomic add, a Histogram observation is two
// atomic adds plus a bucket scan. Instrumented code must behave
// identically whether or not a registry is attached — instruments are
// write-only from the engine's point of view, which is what makes the
// metrics-on/metrics-off equivalence provable.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value pair qualifying a metric, e.g. {kind, concrete}.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the instrument families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n (negative deltas are ignored; counters never decrease).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.n.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a value that can go up and down (e.g. questions in flight).
type Gauge struct {
	n atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add moves the value by delta.
func (g *Gauge) Add(delta int64) { g.n.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.n.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Histogram counts observations into fixed cumulative buckets. The bucket
// bounds are upper limits; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (q in [0, 1]) from the cumulative
// buckets by linear interpolation within the containing bucket — the same
// estimate Prometheus's histogram_quantile computes on a scrape. With no
// observations it returns 0; a quantile landing in the +Inf bucket is
// clamped to the largest finite bound (there is no upper edge to
// interpolate toward).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is a bucket layout spanning both regimes the server
// times: microseconds (a dispatch from a shard's ready queue) and
// milliseconds (simulated members) to minutes (humans thinking).
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// metric is one labeled time series inside a family.
type metric struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every label combination of one metric name.
type family struct {
	name string
	help string
	kind metricKind

	mu      sync.Mutex
	series  map[string]*metric // by canonical label key
	order   []string           // label keys in first-registration order
	buckets []float64          // histograms only
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use, including
// concurrent registration of the same metric (the first registration wins
// and later calls return the same instrument).
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelKey canonicalizes a label set (sorted by key) for series identity.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup finds or creates the family and the labeled series within it.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []Label) *metric {
	name = sanitizeName(name)
	r.mu.Lock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind,
			series: make(map[string]*metric), buckets: buckets}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	r.mu.Unlock()

	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = &metric{labels: append([]Label(nil), labels...)}
		switch f.kind {
		case kindCounter:
			m.c = &Counter{}
		case kindGauge:
			m.g = &Gauge{}
		case kindHistogram:
			h := &Histogram{bounds: append([]float64(nil), f.buckets...)}
			sort.Float64s(h.bounds)
			h.counts = make([]atomic.Uint64, len(h.bounds)+1)
			m.h = h
		}
		f.series[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter finds or creates the named counter with the given labels. If the
// name is already registered as a different instrument kind, a detached
// counter is returned so the caller keeps working (the mismatch is a
// programming error, but observability must never crash the run).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if c := r.lookup(name, help, kindCounter, nil, labels).c; c != nil {
		return c
	}
	return &Counter{}
}

// Gauge finds or creates the named gauge with the given labels (detached on
// a kind mismatch, like Counter).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if g := r.lookup(name, help, kindGauge, nil, labels).g; g != nil {
		return g
	}
	return &Gauge{}
}

// Histogram finds or creates the named histogram with the given bucket
// upper bounds (nil defaults to LatencyBuckets). The bounds of the first
// registration win for the whole family; a kind mismatch returns a
// detached histogram, like Counter.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	if h := r.lookup(name, help, kindHistogram, buckets, labels).h; h != nil {
		return h
	}
	h := &Histogram{bounds: append([]float64(nil), buckets...)}
	sort.Float64s(h.bounds)
	h.counts = make([]atomic.Uint64, len(h.bounds)+1)
	return h
}
