package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeSize runs every workload in a fraction of a second.
var smokeSize = sizes{
	crowdMembers: 12, crowdInputs: 2,
	latticeWidth: 100, latticeInputs: 2,
	manySessions: 200, manyRate: 2000,
}

func smokeConfig(seed int64) runConfig {
	return runConfig{
		seed:    seed,
		window:  300 * time.Millisecond,
		trace:   true,
		drivers: min(2, runtime.NumCPU()),
		size:    smokeSize,
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileListsWhatTheProgramMeasures(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: file %s %s, program %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: file %s %s, program %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// lastJSON parses the report's final line.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// TestSmokeEveryWorkload runs each workload at a tiny scale with tracing
// on and checks that both metric sets come out complete, with units, with
// no failure, and with self times that fit in the traced wall time.
func TestSmokeEveryWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(1)
			var spans bytes.Buffer
			cfg.spans = &spanWriter{w: bufio.NewWriter(&spans)}
			rep := newReport()
			if err := workloads[w.Name](cfg, rep); err != nil {
				t.Fatal(err)
			}
			if err := cfg.spans.w.Flush(); err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("%d failed: %v", rep.failed, rep.problems)
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := writeReport(&out, rep, traced); err != nil {
					t.Fatal(err)
				}
				res := lastJSON(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v", res)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: emitted %v with unit %q, want unit %q", d.name, ok, m.Unit, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if rep.values[d.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, rep.values[d.name])
				}
			}
			if v := rep.values["failed_ratio"]; v != 0 {
				t.Errorf("failed_ratio %v", v)
			}
			var shares float64
			for _, n := range spanNames {
				s := rep.values["self."+n+".share"]
				if s < 0 {
					t.Errorf("self.%s.share %v is negative", n, s)
				}
				shares += s
			}
			if cov := rep.values["trace.coverage_ratio"]; cov <= 0 || cov > 1 || shares < 0.999 || shares > 1.001 {
				t.Errorf("self times cover %v of the traced wall time; shares sum to %v", cov, shares)
			}
			if spans.Len() == 0 {
				t.Error("no spans were written")
			}
		})
	}
}

// TestSeedFixesInputsAndCounts runs each workload twice on one seed, with
// one driver and a fixed number of operations instead of a time window,
// and checks that the deterministic counts repeat exactly; a second seed
// must generate different inputs.
func TestSeedFixesInputsAndCounts(t *testing.T) {
	counts := func(name string, seed int64) map[string]float64 {
		cfg := smokeConfig(seed)
		cfg.trace, cfg.drivers, cfg.ops = false, 1, 40
		if strings.HasPrefix(name, "mine") {
			cfg.ops = 3
		}
		rep := newReport()
		if err := workloads[name](cfg, rep); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		if rep.failed != 0 {
			t.Fatalf("%s seed %d: %v", name, seed, rep.problems)
		}
		return rep.values
	}
	for _, name := range []string{"mine-crowd", "mine-lattice", "serve-many"} {
		a, b := counts(name, 7), counts(name, 7)
		for _, m := range []string{"questions_per_msp", "core.generated_nodes_per_answer"} {
			if a[m] != b[m] {
				t.Errorf("%s: %s is %v, then %v on the same seed", name, m, a[m], b[m])
			}
		}
	}
	for name, build := range map[string]func(runConfig) ([]*queryInput, error){
		"mine-crowd": buildCrowdInputs, "mine-lattice": buildLatticeInputs,
	} {
		refs := func(seed int64) string {
			cfg := smokeConfig(seed)
			ins, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, in := range ins {
				in.computeRef()
				b.WriteString(in.ref.msps)
				b.WriteByte(byte(in.ref.questions))
			}
			return b.String()
		}
		if refs(7) != refs(7) {
			t.Errorf("%s: one seed generated different inputs", name)
		}
		if refs(7) == refs(8) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "mine-lattice", "-trace", "2"},
		{"-workload", "mine-lattice", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
	if code := run([]string{"-bogus"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown flag: exit %d", code)
	}
}
