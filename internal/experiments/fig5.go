package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// Fig5Config parameterizes the algorithm-comparison experiment (Figure 5 of
// the paper: Vertical vs Horizontal vs Naive over a width-500, depth-7 DAG
// with 2/5/10% of the nodes planted as valid MSPs, 6 trials averaged).
type Fig5Config struct {
	Width, Depth int
	MSPPercents  []float64 // e.g. 2, 5, 10
	Trials       int
	Steps        []int // discovery percentages to report, e.g. 20,40,…,100
	Seed         int64

	// Parallelism caps the worker pool fanning the (msp%, trial) grid out
	// (0 = one worker per CPU, 1 = sequential); the report is identical at
	// every setting.
	Parallelism int
}

// DefaultFig5 is the paper's setting, scaled by the given factor (1 = full
// width 500 depth 7; smaller factors keep CI runtimes short).
func DefaultFig5(scale float64) Fig5Config {
	w := int(500 * scale)
	if w < 20 {
		w = 20
	}
	return Fig5Config{
		Width:       w,
		Depth:       7,
		MSPPercents: []float64{2, 5, 10},
		Trials:      6,
		Steps:       []int{20, 40, 60, 80, 100},
		Seed:        42,
	}
}

// discoveryCurve returns, for each step percentage, the number of questions
// after which that share of the planted MSPs had been discovered.
func discoveryCurve(res *core.Result, planted []assign.Assignment, steps []int) []int {
	var times []int
	for _, m := range planted {
		if q, ok := res.DiscoveredAt(m); ok {
			times = append(times, q)
		} else {
			times = append(times, res.Stats.TotalQuestions) // never discovered
		}
	}
	sort.Ints(times)
	out := make([]int, len(steps))
	for i, s := range steps {
		idx := (s*len(times)+99)/100 - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(times) {
			idx = len(times) - 1
		}
		out[i] = times[idx]
	}
	return out
}

// Fig5 regenerates Figure 5: questions to discover X% of the valid MSPs,
// per algorithm, per MSP percentage.
func Fig5(cfg Fig5Config) (*Report, error) {
	r := &Report{
		ID:     "fig5",
		Title:  "Vertical vs Horizontal vs Naive (questions to discover X% of valid MSPs)",
		Header: append([]string{"msp%", "algorithm"}, pctHeaders(cfg.Steps)...),
	}
	r.Note("paper: Fig 5a–5c; width %d, depth %d, %d trials averaged, single simulated user",
		cfg.Width, cfg.Depth, cfg.Trials)

	// Grid: one cell per (msp%, trial) pair; the three algorithms run inside
	// the cell so they compare on the same DAG, planted MSPs, and replayed
	// engine randomness. The per-cell seed is a function of the cell index
	// only, so any worker count produces the same curves.
	algs := []string{"vertical", "horizontal", "naive"}
	gridID := fmt.Sprintf("fig5/%d", cfg.Seed)
	n := len(cfg.MSPPercents) * cfg.Trials
	curves := make([]map[string][]int, n)
	err := RunGrid(cfg.Parallelism, n, func(cell int) error {
		mspPct := cfg.MSPPercents[cell/cfg.Trials]
		seed := CellSeed(gridID, cell)
		s, err := synth.GenerateSpace(synth.DAGConfig{
			Width: cfg.Width, Depth: cfg.Depth, Seed: seed,
		})
		if err != nil {
			return err
		}
		count := int(float64(s.NodeCount()) * mspPct / 100)
		if count < 1 {
			count = 1
		}
		planted, err := s.PlantMSPs(synth.MSPConfig{
			Count: count, ValidOnly: true, Seed: seed + 7,
		})
		if err != nil {
			return err
		}
		out := make(map[string][]int, len(algs))
		for _, alg := range algs {
			oracle := synth.NewOracle("u", s, planted)
			mk := core.Config{
				Space:   s.Sp,
				Theta:   0.5,
				Members: []crowd.Member{oracle},
				Rng:     rand.New(rand.NewSource(seed + 13)),
				Metrics: sharedMetrics(),
			}
			var res *core.Result
			switch alg {
			case "vertical":
				res = core.Run(mk)
			case "horizontal":
				res = core.RunHorizontal(mk)
			default:
				res = core.RunNaive(mk, nil)
			}
			out[alg] = discoveryCurve(res, planted, cfg.Steps)
		}
		curves[cell] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, mspPct := range cfg.MSPPercents {
		sums := map[string][]float64{}
		for _, a := range algs {
			sums[a] = make([]float64, len(cfg.Steps))
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			for _, alg := range algs {
				for i, q := range curves[pi*cfg.Trials+trial][alg] {
					sums[alg][i] += float64(q)
				}
			}
		}
		for _, alg := range algs {
			cells := []interface{}{fmt.Sprintf("%g%%", mspPct), alg}
			for _, s := range sums[alg] {
				cells = append(cells, fmt.Sprintf("%.0f", s/float64(cfg.Trials)))
			}
			r.Add(cells...)
		}
	}
	return r, nil
}

func pctHeaders(steps []int) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = fmt.Sprintf("q@%d%%", s)
	}
	return out
}

// Fig4fConfig parameterizes the answer-type experiment (Figure 4f):
// specialization-answer ratios and user-guided-pruning ratios over a
// two-variable DAG "similar to the one generated in our crowd experiments
// with the travel query" (§6.4).
type Fig4fConfig struct {
	Width, Depth   int
	XWidth, XDepth int
	MSPPercent     float64
	Trials         int
	Steps          []int
	Seed           int64

	// Parallelism caps the worker pool fanning the (variant, trial) grid
	// out (0 = one worker per CPU, 1 = sequential).
	Parallelism int
}

// DefaultFig4f mirrors the paper's setting at the given scale.
func DefaultFig4f(scale float64) Fig4fConfig {
	w := int(120 * scale)
	if w < 15 {
		w = 15
	}
	return Fig4fConfig{
		Width: w, Depth: 7, XWidth: 9, XDepth: 3, MSPPercent: 0.5, Trials: 6,
		Steps: []int{20, 40, 60, 80, 100}, Seed: 77,
	}
}

// Fig4f regenerates Figure 4f: the effect of specialization-question and
// pruning-click ratios on the questions-to-discovery curve.
func Fig4f(cfg Fig4fConfig) (*Report, error) {
	r := &Report{
		ID:     "fig4f",
		Title:  "Effect of answer types (questions to discover X% of valid MSPs)",
		Header: append([]string{"variant"}, pctHeaders(cfg.Steps)...),
	}
	r.Note("paper: Fig 4f; two-variable travel-like DAG %d×%d, %.2g%% MSPs, %d trials",
		cfg.Width, cfg.XWidth, cfg.MSPPercent, cfg.Trials)

	variants := []struct {
		name       string
		specialize float64
		prune      float64
	}{
		{"100% closed", 0, 0},
		{"10% special.", 0.10, 0},
		{"50% special.", 0.50, 0},
		{"100% special.", 1.0, 0},
		{"25% pruning", 0, 0.25},
		{"50% pruning", 0, 0.50},
	}
	// Grid: one cell per (variant, trial) pair. The seed is a function of
	// the trial alone — never the variant or the worker schedule — so every
	// variant replays the same DAG, planted MSPs, and randomness, exactly as
	// the sequential loop did.
	gridID := fmt.Sprintf("fig4f/%d", cfg.Seed)
	n := len(variants) * cfg.Trials
	curves := make([][]int, n)
	err := RunGrid(cfg.Parallelism, n, func(cell int) error {
		v := variants[cell/cfg.Trials]
		trial := cell % cfg.Trials
		seed := CellSeed(gridID, trial)
		s, err := synth.GenerateSpace(synth.DAGConfig{
			Width: cfg.Width, Depth: cfg.Depth,
			XWidth: cfg.XWidth, XDepth: cfg.XDepth, Seed: seed,
		})
		if err != nil {
			return err
		}
		count := int(float64(s.NodeCount()) * cfg.MSPPercent / 100)
		if count < 1 {
			count = 1
		}
		planted, err := s.PlantMSPs(synth.MSPConfig{Count: count, ValidOnly: true, Seed: seed + 7})
		if err != nil {
			return err
		}
		oracle := synth.NewOracle("u", s, planted)
		oracle.SpecializeProb = 1 // the engine's ratio decides the mix
		oracle.PruneProb = v.prune
		oracle.Rng = rand.New(rand.NewSource(seed + 5))
		res := core.Run(core.Config{
			Space:               s.Sp,
			Theta:               0.5,
			Members:             []crowd.Member{oracle},
			SpecializationRatio: v.specialize,
			EnablePruning:       v.prune > 0,
			Rng:                 rand.New(rand.NewSource(seed + 13)),
			Metrics:             sharedMetrics(),
		})
		curves[cell] = discoveryCurve(res, planted, cfg.Steps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		sums := make([]float64, len(cfg.Steps))
		for trial := 0; trial < cfg.Trials; trial++ {
			for i, q := range curves[vi*cfg.Trials+trial] {
				sums[i] += float64(q)
			}
		}
		cells := []interface{}{v.name}
		for _, s := range sums {
			cells = append(cells, fmt.Sprintf("%.0f", s/float64(cfg.Trials)))
		}
		r.Add(cells...)
	}
	return r, nil
}
