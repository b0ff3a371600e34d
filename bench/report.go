package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// report collects a run's outcome.
type report struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	info              []string // extra lines for the human-readable output
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records one failed operation or wrong result.
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...interface{}) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// ratio divides, reading 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setProc records allocation and GC cost per answer between two readings.
func (r *report) setProc(p0, p1 procStats, answers int64) {
	n := float64(answers)
	r.set("core.alloc_bytes_per_answer", ratio(float64(p1.alloc-p0.alloc), n))
	r.set("core.allocs_per_answer", ratio(float64(p1.mallocs-p0.mallocs), n))
	r.set("runtime.gc_cpu_fraction", ratio(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU))
}

// setLatency records exact p50 and tail quantiles of ns samples under
// <prefix>_p50_us and <prefix>_p99_us. The tail is p99 from 1000 samples
// up, else the highest percentile with 10 samples beyond it; the note says
// which.
func (r *report) setLatency(prefix string, s []int64) error {
	d, err := summarize(s)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	r.set(prefix+"_p50_us", float64(d.p50)/1e3)
	r.set(prefix+"_p99_us", float64(d.tail)/1e3)
	r.note("%s: n=%d p50=%.2fus p%d=%.2fus max=%.2fus", prefix, d.n,
		float64(d.p50)/1e3, d.tailP, float64(d.tail)/1e3, float64(d.max)/1e3)
	return nil
}

// setBusy records exact p50 and tail of span durations (ns) under
// <prefix>_p50 and <prefix>_p99.
func (r *report) setBusy(prefix string, s []int64) {
	d, err := summarize(s)
	if err != nil {
		r.set(prefix+"_p50", 0)
		r.set(prefix+"_p99", 0)
		return
	}
	r.set(prefix+"_p50", float64(d.p50))
	r.set(prefix+"_p99", float64(d.tail))
	r.note("%s: n=%d p%d", prefix, d.n, d.tailP)
}

// setShares records each span name's share of the traced self time, and
// how much of the drivers' wall time the spans account for.
func (r *report) setShares(a *spanAgg, wall time.Duration, drivers int) {
	total := float64(a.total())
	for i, n := range spanNames {
		r.set("self."+n+".share", ratio(float64(a.self[i]), total))
	}
	r.set("trace.coverage_ratio", ratio(total, float64(wall)*float64(drivers)))
}

// setSessionLayers records the session layer's costs per answer from a
// traced session loop and returns the session's whole cost per answer.
func (r *report) setSessionLayers(a *spanAgg, answers, questions int) float64 {
	n := float64(answers)
	r.set("core.next.ns_per_answer", ratio(float64(a.self[spCoreNext]), n))
	r.set("core.next.questions_per_call", ratio(float64(questions), float64(a.count[spCoreNext])))
	r.set("core.submit.ns_per_answer", ratio(float64(a.self[spCoreSubmit]), n))
	return ratio(float64(a.self[spCoreNext]+a.self[spCoreSubmit]+a.self[spCoreOpen]), n)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeReport prints every measured value, the run's notes and problems,
// and last the JSON line holding the mode's metric set.
func writeReport(w io.Writer, rep *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep.set("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %.6g\n", n, rep.values[n])
	}
	for _, line := range rep.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	res := jsonResult{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
