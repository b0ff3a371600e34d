package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", L("route", "/x"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters never decrease
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same instrument.
	if again := r.Counter("reqs_total", "requests", L("route", "/x")); again != c {
		t.Error("re-registration returned a different counter")
	}
	// Different labels are a different series.
	if other := r.Counter("reqs_total", "requests", L("route", "/y")); other == c {
		t.Error("different labels shared a series")
	}

	g := r.Gauge("inflight", "in flight")
	g.Add(3)
	g.Dec()
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Errorf("gauge = %d, want -7", got)
	}

	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-55.55) > 1e-9 {
		t.Errorf("histogram sum = %g, want 55.55", h.Sum())
	}
}

func TestKindMismatchReturnsDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	g := r.Gauge("m", "")
	g.Set(9) // must not panic; detached instrument
	h := r.Histogram("m", "", nil)
	h.Observe(1)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "# TYPE m ") != 1 {
		t.Errorf("family registered more than once:\n%s", out.String())
	}
}

func TestWritePrometheusRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("answers_total", "crowd answers", L("kind", "concrete")).Add(7)
	r.Counter("answers_total", "crowd answers", L("kind", "specialization")).Add(2)
	r.Gauge("inflight", "questions in flight").Set(3)
	h := r.Histogram("latency_seconds", "answer latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE answers_total counter",
		"# HELP answers_total crowd answers",
		"# TYPE inflight gauge",
		"# TYPE latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	cases := map[string]float64{
		`answers_total{kind="concrete"}`:       7,
		`answers_total{kind="specialization"}`: 2,
		`inflight`:                             3,
		`latency_seconds_bucket{le="0.1"}`:     1,
		`latency_seconds_bucket{le="1"}`:       2,
		`latency_seconds_bucket{le="+Inf"}`:    3,
		`latency_seconds_count`:                3,
	}
	for key, want := range cases {
		if got, ok := byKey[key]; !ok || got != want {
			t.Errorf("sample %s = %g (present=%v), want %g", key, got, ok, want)
		}
	}
	if got := byKey[`latency_seconds_sum`]; math.Abs(got-2.55) > 1e-9 {
		t.Errorf("latency sum = %g, want 2.55", got)
	}
	// Snapshot agrees with the exposition on scalar series.
	snap := r.Snapshot()
	if snap[`answers_total{kind="concrete"}`] != 7 || snap[`inflight`] != 3 {
		t.Errorf("snapshot disagrees: %v", snap)
	}
}

// TestLatencyBucketsResolveMicroseconds: a dispatch-sized observation
// (4.5 µs) lands in a default bucket whose upper bound is at most 5 µs,
// and the exposition stays valid: parseable, bounds strictly increasing,
// cumulative counts never decreasing.
func TestLatencyBucketsResolveMicroseconds(t *testing.T) {
	r := NewRegistry()
	r.Histogram("dispatch_seconds", "dispatch latency", nil).Observe(4.5e-6)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out.String())
	}
	prevLe, prevCount := math.Inf(-1), 0.0
	firstLe := math.Inf(1) // upper bound of the first bucket counting the observation
	buckets := 0
	for _, s := range samples {
		if s.Name != "dispatch_seconds_bucket" {
			continue
		}
		buckets++
		le := math.Inf(1)
		if v := s.Labels[0].Value; v != "+Inf" {
			if le, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("bucket bound %q: %v", v, err)
			}
		}
		if le <= prevLe || s.Value < prevCount {
			t.Fatalf("bucket le=%g count %g follows le=%g count %g", le, s.Value, prevLe, prevCount)
		}
		if s.Value > 0 && prevCount == 0 {
			firstLe = le
		}
		prevLe, prevCount = le, s.Value
	}
	if buckets != len(LatencyBuckets)+1 {
		t.Errorf("%d buckets exposed, want %d", buckets, len(LatencyBuckets)+1)
	}
	if firstLe > 5e-6 {
		t.Errorf("4.5µs observation first counted in the le=%g bucket, want an upper bound <= 5µs", firstLe)
	}
}

func TestNameSanitization(t *testing.T) {
	cases := map[string]string{
		"ok_name":     "ok_name",
		"with-dash":   "with_dash",
		"9leads":      "_leads",
		"sp ace":      "sp_ace",
		"":            "_",
		"ns:sub_name": "ns:sub_name",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := sanitizeLabelName("a:b"); got != "a_b" {
		t.Errorf("sanitizeLabelName(a:b) = %q, want a_b", got)
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		`plain`:        `plain`,
		`back\slash`:   `back\\slash`,
		`"quoted"`:     `\"quoted\"`,
		"line\nbreak":  `line\nbreak`,
		"\\\"\n":       `\\\"\n`,
		`already\\esc`: `already\\\\esc`,
	}
	for in, want := range cases {
		got := EscapeLabelValue(in)
		if got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
		if back := UnescapeLabelValue(got); back != in {
			t.Errorf("round trip of %q: got %q", in, back)
		}
	}
}

func TestMemTracer(t *testing.T) {
	var tr MemTracer
	end := tr.Begin("question", A("id", "7"), A("phase", "blocked"))
	if got := tr.Len(); got != 1 {
		t.Fatalf("spans = %d, want 1", got)
	}
	if open := tr.Spans()[0]; !open.End.IsZero() || open.Duration() != 0 {
		t.Error("span ended before end func was called")
	}
	end()
	end() // idempotent
	s := tr.Spans()[0]
	if s.Name != "question" || s.Attr("id") != "7" || s.Attr("phase") != "blocked" {
		t.Errorf("span = %+v", s)
	}
	if s.End.Before(s.Start) || s.Attr("missing") != "" {
		t.Errorf("span times/attrs wrong: %+v", s)
	}
	// Nil-tracer Begin is a cheap no-op.
	Begin(nil, "x", A("k", "v"))()
	done := Begin(&tr, "timed")
	time.Sleep(time.Millisecond)
	done()
	if d := tr.Spans()[1].Duration(); d <= 0 {
		t.Errorf("duration = %v, want > 0", d)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"novalue",
		`name{k="v" 3`,
		`name{k=v} 3`,
		`name{k="v"} notanumber`,
		`{k="v"} 3`,
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}
