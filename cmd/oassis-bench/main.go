// Command oassis-bench regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index). Each experiment prints an aligned
// text table; -csv switches to CSV, -json to one JSON document per report
// (with wall-clock duration, for perf-trajectory records); -scale trades
// fidelity for runtime; -parallel fans each experiment's grid cells out
// over a worker pool with bit-identical output.
//
// Usage:
//
//	oassis-bench -exp all            # everything, quick scale
//	oassis-bench -exp fig5 -scale 1  # Figure 5 at the paper's full width
//	oassis-bench -exp fig4a,fig4d -full
//	oassis-bench -exp fig5 -parallel 8 -json > fig5.json
//	oassis-bench -exp summary,bounds -out BENCH_20260805.json
//
// -out FILE writes the JSON report stream to FILE (implying -json), the
// mechanism behind `make bench`'s BENCH_*.json perf-trajectory artifacts.
// -compare FILE reruns the experiments recorded in such an artifact and
// fails on timing regressions (>15% plus fixed slack) or result drift —
// the `make bench-compare` gate against the committed BENCH_baseline.json.
// -metrics FILE additionally dumps the engine-metrics registry covering
// all experiments (Prometheus text format) after the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"oassis/internal/core"
	"oassis/internal/experiments"
	"oassis/internal/obs"
	"oassis/internal/synth"
)

// jsonReport is the -json output document: the report plus its wall-clock
// duration, one document per experiment (JSON Lines when several run).
type jsonReport struct {
	ID       string     `json:"id"`
	Title    string     `json:"title"`
	Header   []string   `json:"header"`
	Rows     [][]string `json:"rows"`
	Notes    []string   `json:"notes,omitempty"`
	Seconds  float64    `json:"seconds"`
	Parallel int        `json:"parallel"`
}

// job names one runnable experiment.
type job struct {
	id  string
	run func() (*experiments.Report, error)
}

// Regression gate of -compare: a fresh run may take at most
// base·(1+compareSlackRel) + compareSlackAbs seconds. The relative part is
// the trajectory policy (15%); the absolute part absorbs scheduler noise on
// sub-second experiments, which would otherwise make the gate flaky.
const (
	compareSlackRel = 0.15
	compareSlackAbs = 0.25
)

// volatileRows lists experiments whose report rows contain measured
// wall-clock values and therefore legitimately differ between runs; their
// timings are still gated, but their rows are not diffed.
var volatileRows = map[string]bool{"latency": true, "serving": true}

// reportToJob maps the Report.ID recorded in a baseline artifact back to
// the -exp flag id, where the two differ.
var reportToJob = map[string]string{
	"crowd-summary":        "summary",
	"complexity-bounds":    "bounds",
	"itemset-capture":      "capture",
	"assoc-miner":          "assoc",
	"sweep-dag-shape":      "sweeps",
	"sweep-msp-dist":       "sweep-dist",
	"sweep-multiplicities": "sweep-mult",
}

// runCompare reruns every experiment recorded in the baseline file and
// diffs timing and rows. It returns the process exit code: 0 when all
// experiments are within the gate, 1 on regression or drift, 2 on misuse.
// Run it with the same -scale/-full/-parallel flags the baseline was
// recorded with, or the timing comparison is meaningless.
func runCompare(path string, jobs []job) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oassis-bench: -compare: %v\n", err)
		return 2
	}
	defer f.Close()
	byID := map[string]job{}
	for _, j := range jobs {
		byID[j.id] = j
	}
	dec := json.NewDecoder(f)
	fails, n := 0, 0
	for {
		var base jsonReport
		if err := dec.Decode(&base); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "oassis-bench: -compare: %s: %v\n", path, err)
			return 2
		}
		jobID := base.ID
		if alias, ok := reportToJob[jobID]; ok {
			jobID = alias
		}
		j, ok := byID[jobID]
		if !ok {
			fmt.Fprintf(os.Stderr, "oassis-bench: -compare: unknown experiment %q in %s\n", base.ID, path)
			return 2
		}
		start := time.Now()
		r, err := j.run()
		elapsed := time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "oassis-bench: -compare: %s: %v\n", base.ID, err)
			return 2
		}
		limit := base.Seconds*(1+compareSlackRel) + compareSlackAbs
		status := "ok"
		switch {
		case elapsed > limit:
			status = fmt.Sprintf("REGRESSED (limit %.3fs)", limit)
			fails++
		case !volatileRows[base.ID] && !sameRows(base, r):
			status = "RESULT DRIFT"
			fails++
		}
		fmt.Printf("%-16s base %8.3fs  fresh %8.3fs  %s\n", base.ID, base.Seconds, elapsed, status)
		n++
	}
	if n == 0 {
		fmt.Fprintf(os.Stderr, "oassis-bench: -compare: %s holds no experiment records\n", path)
		return 2
	}
	if fails > 0 {
		fmt.Fprintf(os.Stderr, "oassis-bench: -compare: %d of %d experiments failed the gate\n", fails, n)
		return 1
	}
	fmt.Printf("all %d experiments within %.0f%% of %s\n", n, compareSlackRel*100, path)
	return 0
}

// sameRows reports whether a fresh report reproduces the baseline's header
// and rows exactly (the zero-result-drift gate).
func sameRows(base jsonReport, r *experiments.Report) bool {
	if len(base.Header) != len(r.Header) || len(base.Rows) != len(r.Rows) {
		return false
	}
	for i := range base.Header {
		if base.Header[i] != r.Header[i] {
			return false
		}
	}
	for i := range base.Rows {
		if len(base.Rows[i]) != len(r.Rows[i]) {
			return false
		}
		for k := range base.Rows[i] {
			if base.Rows[i][k] != r.Rows[i][k] {
				return false
			}
		}
	}
	return true
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids (all, fig4a..fig4f, fig5, sweeps, summary, bounds, serving, panels, capture, stopping, assoc)")
		scale    = flag.Float64("scale", 0.2, "synthetic-DAG scale factor (1 = paper's width 500)")
		full     = flag.Bool("full", false, "use the full 248-member crowd for the domain experiments")
		csv      = flag.Bool("csv", false, "emit CSV instead of text tables")
		jsonOut  = flag.Bool("json", false, "emit one JSON document per report, with wall-clock duration")
		outFile  = flag.String("out", "", "write the -json report stream to FILE instead of stdout (implies -json)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for experiment grid cells (1 = sequential; output is identical at any setting)")
		compare  = flag.String("compare", "", "rerun the experiments recorded in FILE (JSON Lines from -out) and fail on timing regression or result drift; -exp is ignored")
		metricsF = flag.String("metrics", "", "write the engine-metrics registry (Prometheus text format) covering all experiments to FILE after the run")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metricsF != "" {
		reg = obs.NewRegistry()
		experiments.SetMetrics(core.NewMetrics(reg))
	}

	sc := experiments.QuickScale
	if *full {
		sc = experiments.FullScale
	}
	sc.Parallelism = *parallel
	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	runAll := want["all"]

	fig5Cfg := experiments.DefaultFig5(*scale)
	fig5Cfg.Parallelism = *parallel
	fig4fCfg := experiments.DefaultFig4f(*scale)
	fig4fCfg.Parallelism = *parallel

	jobs := []job{
		{"fig4a", func() (*experiments.Report, error) {
			return experiments.Fig4Domain("fig4a", synth.Travel, sc)
		}},
		{"fig4b", func() (*experiments.Report, error) {
			return experiments.Fig4Domain("fig4b", synth.Culinary, sc)
		}},
		{"fig4c", func() (*experiments.Report, error) {
			return experiments.Fig4Domain("fig4c", synth.SelfTreatment, sc)
		}},
		{"fig4d", func() (*experiments.Report, error) {
			return experiments.Fig4Pace("fig4d", synth.Travel, sc)
		}},
		{"fig4e", func() (*experiments.Report, error) {
			return experiments.Fig4Pace("fig4e", synth.SelfTreatment, sc)
		}},
		{"fig4f", func() (*experiments.Report, error) {
			return experiments.Fig4f(fig4fCfg)
		}},
		{"fig5", func() (*experiments.Report, error) {
			return experiments.Fig5(fig5Cfg)
		}},
		{"sweeps", func() (*experiments.Report, error) {
			return experiments.SweepDAGShape(*scale, 3, *parallel)
		}},
		{"sweep-dist", func() (*experiments.Report, error) {
			return experiments.SweepMSPDistribution(*scale, 3, *parallel)
		}},
		{"sweep-mult", func() (*experiments.Report, error) {
			return experiments.SweepMultiplicities(*scale, 3, *parallel)
		}},
		{"summary", func() (*experiments.Report, error) {
			return experiments.CrowdSummary(sc)
		}},
		{"bounds", func() (*experiments.Report, error) {
			return experiments.ComplexityBounds(*scale, *parallel)
		}},
		{"latency", func() (*experiments.Report, error) {
			return experiments.DispatchLatency(100*time.Millisecond, []int{1, 2, 4, 8})
		}},
		{"panels", func() (*experiments.Report, error) {
			return experiments.Panels([]int{1, 4, 16})
		}},
		{"serving", func() (*experiments.Report, error) {
			// -scale 0.2 (the default) is 10k concurrent sessions.
			return experiments.Serving(int(*scale*50000), 4)
		}},
		{"capture", func() (*experiments.Report, error) {
			return experiments.ItemsetCapture(12, 60, 0.15, 7)
		}},
		{"stopping", func() (*experiments.Report, error) {
			return experiments.Stopping([]int{8, 10, 12})
		}},
		{"assoc", func() (*experiments.Report, error) {
			return experiments.AssocMiner(30, 500, 11)
		}},
	}

	if *compare != "" {
		os.Exit(runCompare(*compare, jobs))
	}

	var jsonDst io.Writer = os.Stdout
	if *outFile != "" {
		*jsonOut = true
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oassis-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "oassis-bench: %v\n", err)
				os.Exit(1)
			}
		}()
		jsonDst = f
	}
	enc := json.NewEncoder(jsonDst)
	ran := 0
	for _, j := range jobs {
		if !runAll && !want[j.id] {
			continue
		}
		start := time.Now()
		r, err := j.run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oassis-bench: %s: %v\n", j.id, err)
			os.Exit(1)
		}
		switch {
		case *jsonOut:
			doc := jsonReport{
				ID: r.ID, Title: r.Title, Header: r.Header, Rows: r.Rows,
				Notes: r.Notes, Seconds: elapsed.Seconds(), Parallel: *parallel,
			}
			if err := enc.Encode(doc); err != nil {
				fmt.Fprintf(os.Stderr, "oassis-bench: %s: %v\n", j.id, err)
				os.Exit(1)
			}
		case *csv:
			fmt.Println(r.CSV())
		default:
			fmt.Println(r.Table())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "oassis-bench: no experiment matched %q\n", *exp)
		os.Exit(2)
	}
	if reg != nil {
		f, err := os.Create(*metricsF)
		if err == nil {
			err = reg.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oassis-bench: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}
