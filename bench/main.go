// Command oassis-bench is the repository's benchmark. It runs one named
// workload over inputs generated from a seed, checks every result it
// produces against a reference, and prints its metrics by name and unit,
// ending with one JSON line:
//
//	go -C bench run . -workload mine-crowd -seed 1 -seconds 32 -trace 0
//
// With -trace 0 the run measures the end-to-end metrics; with -trace 1 it
// measures the workload once untraced and once with a span around every
// call into a layer, and reports the per-layer metrics. The workloads,
// metrics and their bounds are listed in BENCHMARK.json at the repository
// root; README.md in this directory explains each of them.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"answers_per_s", "1/s"},
	{"questions_per_msp", "q/msp"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a -trace 1 run reports, on every workload. A
// layer a workload does not exercise reads 0 there. The latencies a user
// sees lead the list: on a shared two-core machine they varied too much
// from run to run to be gated (see README.md).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"question_p50_us", "us"},
		{"question_p99_us", "us"},
		{"answer_p50_us", "us"},
		{"answer_p99_us", "us"},
		{"core.next.ns_per_answer", "ns"},
		{"core.next.questions_per_call", "count"},
		{"core.submit.ns_per_answer", "ns"},
		{"core.run.ns_per_answer", "ns"},
		{"core.session.overhead_ratio", "ratio"},
		{"core.generated_nodes_per_answer", "count"},
		{"core.alloc_bytes_per_answer", "B"},
		{"core.allocs_per_answer", "count"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"core.speculated_per_answer", "count"},
		{"core.retired_per_answer", "count"},
		{"assign.successors.ns_per_call", "ns"},
		{"assign.successors.allocs_per_call", "count"},
		{"api.question.busy_ns_p50", "ns"},
		{"api.question.busy_ns_p99", "ns"},
		{"api.answer.busy_ns_p50", "ns"},
		{"api.answer.busy_ns_p99", "ns"},
		{"serve.poll.empty_ratio", "ratio"},
		{"serve.goroutines_per_session", "count"},
		{"serve.heap_kb_per_session", "KB"},
		{"serve.sheds_per_answer", "count"},
		{"crowd.ns_per_answer", "ns"},
		{"failed_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"},
		{"trace.coverage_ratio", "ratio"},
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{"self." + n + ".share", "ratio"})
	}
	return defs
}()

// A run sets its workload up at least setupMin times and until its setup
// budget has passed; setup_s is the median.
const (
	setupMin    = 5
	setupBudget = time.Second
)

// moreSetups reports whether a run that has set up n times since start
// sets up once more.
func (cfg runConfig) moreSetups(n int, start time.Time) bool {
	return n < setupMin || time.Since(start) < cfg.setupBudget
}

// runConfig is everything a workload run needs.
type runConfig struct {
	seed    int64
	window  time.Duration // measured time of a run: mine rounds, or both serve phases
	trace   bool
	spans   *spanWriter
	drivers int
	// setupBudget is how long a run keeps setting up again, beyond
	// setupMin times.
	setupBudget time.Duration
	// ops, when positive, replaces the time window: mine runs exactly ops
	// rounds over its inputs and each serve phase exactly ops trips per
	// driver, so the work done, and every count, depends on the seed alone.
	ops  int
	size sizes
}

// sizes scales a workload. fullSize is the benchmark; the smoke test runs
// smokeSize.
type sizes struct {
	crowdMembers  int     // mine-crowd: simulated members
	crowdInputs   int     // mine-crowd: seeded inputs per run
	latticeWidth  int     // mine-lattice: DAG width
	latticeInputs int     // mine-lattice: seeded spaces per run
	manySessions  int     // serve-many: live sessions
	manyRate      float64 // serve-many: open-loop arrivals per second
}

var fullSize = sizes{
	crowdMembers: 16, crowdInputs: 48,
	latticeWidth: 500, latticeInputs: 32,
	manySessions: 10000, manyRate: 15000,
}

var workloads = map[string]func(runConfig, *report) error{
	"mine-crowd":   runMineCrowd,
	"mine-lattice": runMineLattice,
	"serve-many":   runServeMany,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oassis-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: mine-crowd, mine-lattice or serve-many")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 32, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	spansPath := fs.String("spans", "", "with -trace 1, write every span to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "oassis-bench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		drivers: min(2, runtime.NumCPU()),
		size:    fullSize,

		setupBudget: setupBudget,
	}
	var spansFile *os.File
	if *spansPath != "" && cfg.trace {
		f, err := os.Create(*spansPath)
		if err != nil {
			fmt.Fprintf(stderr, "oassis-bench: %v\n", err)
			return 1
		}
		spansFile = f
		cfg.spans = &spanWriter{w: bufio.NewWriterSize(f, 1<<16)}
	}
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d gomaxprocs %d numcpu %d drivers %d %s\n",
		*workload, cfg.seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.drivers, runtime.Version())
	rep := newReport()
	err := runW(cfg, rep)
	if spansFile != nil {
		if ferr := cfg.spans.w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if cerr := spansFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "oassis-bench: %s: %v\n", *workload, err)
		return 1
	}
	if err := writeReport(stdout, rep, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "oassis-bench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
