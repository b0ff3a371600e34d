package experiments

import (
	"fmt"
	"sort"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/synth"
)

// The stopping sweep's grid: every seed of each range × every pattern
// count is one open-world domain. The stop rule's constants were chosen
// on the first range; the second is held out.
var (
	stoppingRanges   = [][2]int{{1, 40}, {41, 80}}
	stoppingPatterns = []int{8, 10, 12}
)

// stoppingCell compares run-to-exhaustion against the species stop rule
// on one domain: the answers each asked and the early run's quality
// relative to the exhaustive one.
type stoppingCell struct {
	// QFull / QEarly are the crowd answers each run consumed.
	QFull, QEarly int
	// Fired reports that the stop rule ended the early run.
	Fired bool
	// Recall is the fraction of the exhaustive run's MSPs the early run
	// reproduced exactly (1 when the exhaustive run found none).
	Recall float64
	// Sound reports that every early MSP is below (or equal to) an
	// exhaustive-run MSP: the answer set was truncated, never corrupted.
	Sound bool
}

func runStoppingCell(seed int64, patterns int) (stoppingCell, error) {
	var c stoppingCell
	run := func(stop *aggregate.SpeciesStop) (*synth.Domain, *core.Result, error) {
		d, err := synth.OpenWorldDomain(seed, patterns)
		if err != nil {
			return nil, nil, err
		}
		return d, core.Run(core.Config{
			Space: d.Sp, Theta: 0.2, Members: d.Members,
			Agg:  aggregate.NewFixedSample(5),
			Stop: stop,
		}), nil
	}
	d, full, err := run(nil)
	if err != nil {
		return c, err
	}
	d2, early, err := run(aggregate.NewSpeciesStop())
	if err != nil {
		return c, err
	}
	c.QFull = full.Stats.TotalQuestions
	c.QEarly = early.Stats.TotalQuestions
	c.Fired = early.Stats.StoppedEarly
	fullKeys := map[string]bool{}
	for _, m := range full.MSPs {
		fullKeys[d.Sp.Format(m)] = true
	}
	hit := 0
	c.Sound = true
	for _, m := range early.MSPs {
		if fullKeys[d2.Sp.Format(m)] {
			hit++
		}
		below := false
		for _, fm := range full.MSPs {
			if d.Sp.Leq(m, fm) {
				below = true
				break
			}
		}
		c.Sound = c.Sound && below
	}
	c.Recall = 1
	if len(full.MSPs) > 0 {
		c.Recall = float64(hit) / float64(len(full.MSPs))
	}
	return c, nil
}

// stoppingTally pools the cells of one row of the report.
type stoppingTally struct {
	qFull, qEarly, fired, unsound int
	recalls                       []float64
}

func (t *stoppingTally) add(c stoppingCell) {
	t.qFull += c.QFull
	t.qEarly += c.QEarly
	if c.Fired {
		t.fired++
	}
	if !c.Sound {
		t.unsound++
	}
	t.recalls = append(t.recalls, c.Recall)
}

// recall returns the median and the worst recall of the tallied cells.
func (t *stoppingTally) recall() (median, worst float64) {
	rs := append([]float64(nil), t.recalls...)
	sort.Float64s(rs)
	n := len(rs)
	return (rs[(n-1)/2] + rs[n/2]) / 2, rs[0]
}

// row renders the tally as a report row under the given labels.
func (t *stoppingTally) row(seeds, patterns string) []interface{} {
	median, worst := t.recall()
	return []interface{}{seeds, patterns, len(t.recalls), t.qFull, t.qEarly,
		pct(t.qFull-t.qEarly, t.qFull), t.fired, t.unsound,
		fmt.Sprintf("%.2f", median), fmt.Sprintf("%.2f", worst)}
}

// stoppingSweep mines every domain of the grid both ways and tallies the
// cells per seed range: one tally per pattern count, then one over all
// of them.
func stoppingSweep(parallel int) ([][]stoppingTally, error) {
	var seeds []int64
	for _, sr := range stoppingRanges {
		for s := sr[0]; s <= sr[1]; s++ {
			seeds = append(seeds, int64(s))
		}
	}
	np := len(stoppingPatterns)
	cells := make([]stoppingCell, len(seeds)*np)
	err := RunGrid(parallel, len(cells), func(i int) error {
		var err error
		cells[i], err = runStoppingCell(seeds[i/np], stoppingPatterns[i%np])
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]stoppingTally, len(stoppingRanges))
	i := 0
	for k, sr := range stoppingRanges {
		out[k] = make([]stoppingTally, np+1)
		for s := sr[0]; s <= sr[1]; s++ {
			for p := range stoppingPatterns {
				out[k][p].add(cells[i])
				out[k][np].add(cells[i])
				i++
			}
		}
	}
	return out, nil
}

// Stopping sweeps the open-world enumeration scenario: domains whose
// members keep volunteering patterns from pools of increasing depth,
// each mined to exhaustion (the paper's behavior) and with the species
// stop rule. The rule buys its question savings with a completeness bet,
// so the table reports the quality it kept: how many domains it fired on,
// how many were unsound (an early MSP outside the exhaustive answer set),
// and the median and worst exact-MSP recall against the exhaustive run.
// Each seed range gets one row per pattern count and one over all of
// them. Everything is seeded, so the rows are deterministic at any
// parallelism and the bench gate diffs them.
func Stopping(parallel int) (*Report, error) {
	sweep, err := stoppingSweep(parallel)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "stopping",
		Title: "species stop rule vs run-to-exhaustion: questions asked and answer quality, open-world enumeration",
		Header: []string{"seeds", "patterns", "domains", "q exhaustive", "q early", "saved",
			"fired", "unsound", "median recall", "worst recall"},
	}
	for k, sr := range stoppingRanges {
		label := fmt.Sprintf("%d–%d", sr[0], sr[1])
		for p, t := range sweep[k] {
			patterns := "all"
			if p < len(stoppingPatterns) {
				patterns = fmt.Sprint(stoppingPatterns[p])
			}
			r.Add(t.row(label, patterns)...)
		}
	}
	r.Note("species rule: stop once ≥ 30 distinct chain-max sightings have a new-item rate f1/n < 0.275")
	r.Note("(Good–Turing coverage 1 − f1/n > 0.725); the frontier then settles only verdicts")
	r.Note("no missing answer could change, asking no further questions")
	r.Note("8 members, 5 answers per question, theta 0.2; unsound: an early MSP below no exhaustive MSP")
	return r, nil
}
