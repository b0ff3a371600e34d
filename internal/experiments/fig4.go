package experiments

import (
	"fmt"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// DomainScale shrinks the crowd of the domain experiments while keeping the
// paper's DAG sizes; 1.0 is the full 248-member crowd.
type DomainScale struct {
	Members  int
	Patterns int
	Sample   int // answers per assignment (the paper's black box uses 5)

	// Parallelism caps the worker pool fanning independent grid cells out
	// (0 = one worker per CPU, 1 = sequential). Output is identical at
	// every setting; see RunGrid.
	Parallelism int
}

// FullScale is the paper's crowd setting.
var FullScale = DomainScale{Members: 248, Patterns: 0, Sample: 5}

// QuickScale keeps runtimes short while preserving the figures' shape.
var QuickScale = DomainScale{Members: 40, Patterns: 14, Sample: 5}

func applyScale(cfg synth.DomainConfig, sc DomainScale) synth.DomainConfig {
	if sc.Members > 0 {
		cfg.Members = sc.Members
	}
	if sc.Patterns > 0 {
		cfg.Patterns = sc.Patterns
	}
	return cfg
}

// runCell mines one grid cell at the given threshold, optionally priming
// from a previous run's cache (the §6.3 threshold-replay methodology).
// Each cell gets a private space and crowd so that runs at different
// thresholds share neither lattice caches nor member RNG streams (the
// crowd answers are shared via the prime cache instead, as in the paper).
func runCell(sp *assign.Space, members []crowd.Member, theta float64, sample int,
	prime *core.Cache, timeline bool) *core.Result {

	return core.Run(core.Config{
		Space:         sp,
		Theta:         theta,
		Members:       members,
		Agg:           aggregate.NewFixedSample(sample),
		Prime:         prime,
		TrackTimeline: timeline,
		Metrics:       sharedMetrics(),
	})
}

// Fig4Domain regenerates one of Figures 4a–4c: per support threshold, the
// number of MSPs, valid MSPs, crowd questions, and the percentage of the
// baseline algorithm's questions (5 per valid assignment, no traversal
// order or inference).
func Fig4Domain(id string, base synth.DomainConfig, sc DomainScale) (*Report, error) {
	cfg := applyScale(base, sc)
	r := &Report{
		ID:     id,
		Title:  fmt.Sprintf("Crowd statistics — %s (DAG %s)", cfg.Name, dagSizeNote(cfg)),
		Header: []string{"theta", "#MSPs", "#valid", "#questions", "baseline%"},
	}
	r.Note("paper: Fig 4%s; %d members simulated (paper: 248 real), %d answers/assignment",
		id[len(id)-1:], cfg.Members, sc.Sample)
	r.Note("thresholds above 0.2 replay the 0.2 run's CrowdCache (§6.3)")

	// The domain is generated and its plan compiled exactly once; every
	// grid cell rebuilds a private lattice from the shared immutable plan
	// (pl.NewSpace) and a private crowd (NewCrowd) instead of regenerating
	// the whole domain — bit-identical output, none of the repeated
	// ontology/space construction. The theta-0.2 run feeds the replay
	// cache, so it runs first; the remaining thresholds are independent
	// given that (read-only) cache and fan out as grid cells.
	d0, err := synth.GenerateDomain(cfg)
	if err != nil {
		return nil, err
	}
	pl, err := d0.Plan(0.2)
	if err != nil {
		return nil, err
	}
	res0 := runCell(d0.Sp, d0.Members, 0.2, sc.Sample, nil, false)
	prime := res0.Cache
	addRow := func(sp *assign.Space, theta float64, res *core.Result) []interface{} {
		baseline := core.BaselineQuestions(sp, sc.Sample)
		return []interface{}{theta, len(res.MSPs), len(res.ValidMSPs),
			res.Stats.TotalQuestions, pct(res.Stats.TotalQuestions, baseline)}
	}
	rest := []float64{0.3, 0.4, 0.5}
	rows := make([][]interface{}, len(rest))
	err = RunGrid(sc.Parallelism, len(rest), func(i int) error {
		sp := pl.NewSpace()
		res := runCell(sp, d0.NewCrowd(), rest[i], sc.Sample, prime, false)
		rows[i] = addRow(sp, rest[i], res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Add(addRow(d0.Sp, 0.2, res0)...)
	for _, row := range rows {
		r.Add(row...)
	}
	return r, nil
}

func dagSizeNote(cfg synth.DomainConfig) string {
	return fmt.Sprintf("%d nodes", cfg.YTerms*cfg.XTerms)
}

// Fig4Pace regenerates Figure 4d/4e: the number of questions as a function
// of the percentage of discovered MSPs, valid MSPs, and classified valid
// assignments, at threshold 0.2.
func Fig4Pace(id string, base synth.DomainConfig, sc DomainScale) (*Report, error) {
	cfg := applyScale(base, sc)
	r := &Report{
		ID:     id,
		Title:  fmt.Sprintf("Pace of data collection — %s (theta 0.2)", cfg.Name),
		Header: []string{"%discovered", "classified assign.", "valid MSPs", "all MSPs"},
	}
	r.Note("paper: Fig 4d/4e; questions needed to reach each discovery percentage")
	d, err := synth.GenerateDomain(cfg)
	if err != nil {
		return nil, err
	}
	res := runCell(d.Sp, d.Members, 0.2, sc.Sample, nil, true)

	classified := classifiedCurve(res)
	allMSPs := mspCurve(res, res.MSPs)
	validMSPs := mspCurve(res, res.ValidMSPs)
	for _, p := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		r.Add(fmt.Sprintf("%d%%", p),
			atPct(classified, p), atPct(validMSPs, p), atPct(allMSPs, p))
	}
	r.Note("total questions: %d; MSPs: %d (%d valid)",
		res.Stats.TotalQuestions, len(res.MSPs), len(res.ValidMSPs))
	return r, nil
}

// classifiedCurve extracts, from the timeline, the question counts at which
// the classified-valid-assignment count increased (sorted ascending).
func classifiedCurve(res *core.Result) []int {
	var out []int
	last := 0
	for _, p := range res.Stats.Timeline {
		for last < p.ClassifiedValid {
			out = append(out, p.Questions)
			last++
		}
	}
	return out
}

// mspCurve lists the discovery question of each given MSP, ascending.
func mspCurve(res *core.Result, msps []assign.Assignment) []int {
	var out []int
	for _, m := range msps {
		if q, ok := res.DiscoveredAt(m); ok {
			out = append(out, q)
		} else {
			out = append(out, res.Stats.TotalQuestions)
		}
	}
	sortInts(out)
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// atPct returns the value of the sorted curve at the given percentage of
// its length ("questions needed to reach p% of the discoveries").
func atPct(curve []int, p int) string {
	if len(curve) == 0 {
		return "n/a"
	}
	idx := (p*len(curve)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(curve) {
		idx = len(curve) - 1
	}
	return fmt.Sprintf("%d", curve[idx])
}

// CrowdSummary regenerates the §6.3 run statistics across the three
// domains: questions to completion (paper: 340–1416), answers per member
// (paper: ~20 average), answer-type shares (paper: 12% specialization, half
// of them "none of these", 13% pruning), and multiplicity MSP counts
// (paper: up to 25 per query).
func CrowdSummary(sc DomainScale) (*Report, error) {
	r := &Report{
		ID:    "crowd-summary",
		Title: "Crowd-experiment summary across domains (theta 0.2)",
		Header: []string{"domain", "DAG", "#questions", "unique", "per-member",
			"special%", "none%", "prune%", "#MSPs", "mult-MSPs"},
	}
	r.Note("paper §6.3: 340–1416 questions to completion, 248 members × ~20 answers,")
	r.Note("12%% specialization (half none-of-these), 13%% pruning, ≤25 multiplicity MSPs")
	domains := []synth.DomainConfig{synth.Travel, synth.Culinary, synth.SelfTreatment}
	rows := make([][]interface{}, len(domains))
	err := RunGrid(sc.Parallelism, len(domains), func(i int) error {
		cfg := applyScale(domains[i], sc)
		d, err := synth.GenerateDomain(cfg)
		if err != nil {
			return err
		}
		res := core.Run(core.Config{
			Space:               d.Sp,
			Theta:               0.2,
			Members:             d.Members,
			Agg:                 aggregate.NewFixedSample(sc.Sample),
			SpecializationRatio: 0.35,
			EnablePruning:       true,
			Rng:                 newRng(cfg.Seed),
			Metrics:             sharedMetrics(),
		})
		mult := 0
		for _, m := range res.MSPs {
			for _, vs := range m.Vals {
				if len(vs) > 1 {
					mult++
					break
				}
			}
		}
		total := res.Stats.TotalQuestions
		perMember := float64(total) / float64(len(d.Members))
		rows[i] = []interface{}{cfg.Name, d.DAGSize(), total, res.Stats.UniqueQuestions,
			fmt.Sprintf("%.1f", perMember),
			pct(res.Stats.Specialization+res.Stats.NoneOfThese, total),
			pct(res.Stats.NoneOfThese, total),
			pct(res.Stats.Pruning, total),
			len(res.MSPs), mult}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		r.Add(row...)
	}
	return r, nil
}
