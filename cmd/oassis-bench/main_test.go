package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oassis/internal/experiments"
)

// fakeReport is the report every fake job returns unless a case overrides
// it.
func fakeReport(id string) *experiments.Report {
	r := &experiments.Report{ID: id, Title: "fake " + id, Header: []string{"k", "v"}}
	r.Add("a", 1)
	r.Add("b", 2)
	r.Note("total %d", 3)
	return r
}

// baselineLine renders one baseline record for r, as -out writes it.
func baselineLine(t *testing.T, r *experiments.Report, seconds float64) string {
	t.Helper()
	b, err := json.Marshal(jsonReport{ID: r.ID, Title: r.Title, Header: r.Header,
		Rows: r.Rows, Notes: r.Notes, Seconds: seconds, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// compare writes baseline to a temp file, runs the gate over jobs and
// returns its exit code and combined output.
func compare(t *testing.T, baseline string, jobs ...job) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := runCompare(path, jobs, &out, &out)
	return code, out.String()
}

// TestCompareGate drives the -compare gate over fake jobs: an exact
// report passes, a changed cell, note or title or a run over the timing
// limit fails, and a baseline the gate cannot read is misuse.
func TestCompareGate(t *testing.T) {
	exact := job{"exact", func() (*experiments.Report, error) { return fakeReport("exact"), nil }}
	drifted := job{"drifted", func() (*experiments.Report, error) {
		r := fakeReport("drifted")
		r.Rows[1][1] = "3"
		return r, nil
	}}
	renoted := job{"renoted", func() (*experiments.Report, error) {
		r := fakeReport("renoted")
		r.Notes[0] = "sum 3"
		return r, nil
	}}
	retitled := job{"retitled", func() (*experiments.Report, error) {
		r := fakeReport("retitled")
		r.Title += "!"
		return r, nil
	}}
	// The baseline records 0 s, so the limit is compareSlackAbs.
	slow := job{"slow", func() (*experiments.Report, error) {
		time.Sleep(time.Duration((compareSlackAbs + 0.05) * float64(time.Second)))
		return fakeReport("slow"), nil
	}}
	jobs := []job{exact, drifted, renoted, retitled, slow}

	cases := []struct {
		name     string
		baseline string
		code     int
		want     string
	}{
		{"exact", baselineLine(t, fakeReport("exact"), 10), 0, "all 1 experiments within"},
		{"changed cell", baselineLine(t, fakeReport("exact"), 10) +
			baselineLine(t, fakeReport("drifted"), 10), 1, "RESULT DRIFT"},
		{"changed note", baselineLine(t, fakeReport("renoted"), 10), 1, "RESULT DRIFT"},
		{"changed title", baselineLine(t, fakeReport("retitled"), 10), 1, "RESULT DRIFT"},
		{"over the limit", baselineLine(t, fakeReport("slow"), 0), 1, "REGRESSED"},
		{"unknown id", baselineLine(t, fakeReport("nope"), 10), 2, `unknown experiment "nope"`},
		{"empty file", "", 2, "holds no experiment records"},
		{"malformed line", baselineLine(t, fakeReport("exact"), 10) + "{not json\n", 2, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := compare(t, tc.baseline, jobs...)
			if code != tc.code {
				t.Errorf("exit code %d, want %d\n%s", code, tc.code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestExpUsageNamesEveryJob pins the -exp help to the job list: it names
// every job id, and every id it names is a job.
func TestExpUsageNamesEveryJob(t *testing.T) {
	listed := map[string]bool{}
	inner := expUsage[strings.Index(expUsage, "(")+1 : strings.LastIndex(expUsage, ")")]
	for _, id := range strings.Split(inner, ", ") {
		if id == "fig4a..fig4f" {
			for _, c := range "abcdef" {
				listed["fig4"+string(c)] = true
			}
			continue
		}
		listed[id] = true
	}
	delete(listed, "all")
	jobs := benchJobs(experiments.QuickScale, 0.08, 1)
	for _, j := range jobs {
		if !listed[j.id] {
			t.Errorf("-exp help omits job %q", j.id)
		}
		delete(listed, j.id)
	}
	for id := range listed {
		t.Errorf("-exp help names %q, which is no job", id)
	}
}
