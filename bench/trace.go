package main

import (
	"bufio"
	"fmt"
	"sort"
	"sync"
	"time"
)

// spanName names the boundary a span was recorded at. Every span is taken
// by the benchmark around one call into a layer's public API; the layers
// themselves are not instrumented.
type spanName uint8

const (
	spBench       spanName = iota // the benchmark's own loop around one operation
	spCrowd                       // the simulated crowd producing an answer
	spCoreOpen                    // core.NewSession (runs the engine to its first question)
	spCoreNext                    // core.Session.Next
	spCoreSubmit                  // core.Session.Submit
	spCoreRun                     // core.Run
	spServeOpen                   // serve.Tenant.Open
	spServePoll                   // serve.Tenant.Poll
	spServeAnswer                 // serve.Tenant.Answer
	spServeDone                   // serve.Tenant.Session + serve.Session.Done
	spServeRetire                 // serve.Tenant.Retire
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench", "crowd", "core.open", "core.next", "core.submit", "core.run",
	"serve.open", "serve.poll", "serve.answer", "serve.done", "serve.retire",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded call: times are nanoseconds since the run's trace
// base, parent indexes the tracer's buffer (-1 for a root), and qid is the
// question the call handled (-1 when none).
type span struct {
	start, end int64
	qid        int64
	parent     int32
	name       spanName
}

// flushAt is the buffer size at which completed span trees are folded into
// the aggregates (and written out), bounding the tracer's memory.
const flushAt = 1 << 14

// spanAgg accumulates self time and call counts per span name, plus the raw
// durations of the names whose latency distribution is reported.
type spanAgg struct {
	self  [numSpanNames]int64
	count [numSpanNames]int64
	durs  [numSpanNames][]int64
}

func (a *spanAgg) add(b *spanAgg) {
	for i := range a.self {
		a.self[i] += b.self[i]
		a.count[i] += b.count[i]
		a.durs[i] = append(a.durs[i], b.durs[i]...)
	}
}

// total is the summed self time of every span.
func (a *spanAgg) total() int64 {
	var t int64
	for _, s := range a.self {
		t += s
	}
	return t
}

// spanWriter writes spans as JSON lines; drivers share one.
type spanWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// tracer records spans for one driver goroutine. A nil *tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	base    time.Time
	driver  int
	spans   []span
	stack   []int32
	flushed int64 // spans folded before the buffer's first
	keep    [numSpanNames]bool
	agg     spanAgg
	out     *spanWriter
}

func newTracer(base time.Time, driver int, out *spanWriter, keep ...spanName) *tracer {
	t := &tracer{base: base, driver: driver, out: out, spans: make([]span, 0, flushAt)}
	for _, n := range keep {
		t.keep[n] = true
	}
	return t
}

func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.base)), qid: -1, parent: parent, name: name})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 && len(t.spans) >= flushAt {
		t.flush()
	}
}

func (t *tracer) setQID(i int32, qid int64) {
	if t != nil {
		t.spans[i].qid = qid
	}
}

// flush folds the buffered span trees into the aggregates, writes them
// out, and empties the buffer. Only called with no span open.
func (t *tracer) flush() {
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		t.agg.self[s.name] += self[i]
		t.agg.count[s.name]++
		if t.keep[s.name] {
			t.agg.durs[s.name] = append(t.agg.durs[s.name], s.end-s.start)
		}
	}
	if t.out != nil {
		t.out.mu.Lock()
		for i, s := range t.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = t.flushed + int64(s.parent)
			}
			fmt.Fprintf(t.out.w, `{"driver":%d,"id":%d,"parent":%d,"name":%q,"qid":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				t.driver, t.flushed+int64(i), parent, s.name, s.qid, s.start, s.end)
		}
		t.out.mu.Unlock()
	}
	t.flushed += int64(len(t.spans))
	t.spans = t.spans[:0]
}

// collect flushes and returns everything recorded since the last collect.
func (t *tracer) collect() spanAgg {
	if t == nil {
		return spanAgg{}
	}
	t.flush()
	a := t.agg
	t.agg = spanAgg{}
	return a
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap one another and may run
// past their parent; only the union of their intervals, clipped to the
// parent, is subtracted.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	children := make([][]int32, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	var iv [][2]int64
	for p, kids := range children {
		if len(kids) == 0 {
			continue
		}
		ps, pe := spans[p].start, spans[p].end
		iv = iv[:0]
		for _, k := range kids {
			a, b := max(spans[k].start, ps), min(spans[k].end, pe)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64
		hi = ps
		for _, x := range iv {
			if x[1] <= hi {
				continue
			}
			covered += x[1] - max(x[0], hi)
			hi = x[1]
		}
		self[p] -= covered
	}
	return self
}
