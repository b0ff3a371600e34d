package experiments

import (
	"fmt"
	"sort"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/panel"
	"oassis/internal/synth"
)

// The panels workload's crowd: panelMembers pure oracles, with
// panelAnswers answers aggregated per question.
const (
	panelMembers = 12
	panelAnswers = 8
)

// panelsConfig builds the panels workload: a small synthetic space with
// three planted MSPs, mined by a crowd of pure oracles.
func panelsConfig() (core.Config, error) {
	sp, err := synth.GenerateSpace(synth.DAGConfig{
		Width: 4, Depth: 2, XWidth: 2, XDepth: 1, Seed: 5,
	})
	if err != nil {
		return core.Config{}, err
	}
	planted, err := sp.PlantMSPs(synth.MSPConfig{Count: 3, Seed: 5})
	if err != nil {
		return core.Config{}, err
	}
	members := make([]crowd.Member, panelMembers)
	for i := range members {
		members[i] = synth.NewOracle(fmt.Sprintf("m%02d", i), sp, planted)
	}
	return core.Config{
		Space:   sp.Sp,
		Theta:   0.5,
		Members: members,
		Agg:     aggregate.NewFixedSample(panelAnswers),
		Metrics: sharedMetrics(),
	}, nil
}

// panelsSummary renders a run result for equality checks across panel
// sizes.
func panelsSummary(res *core.Result) string {
	keys := make([]string, 0, len(res.MSPs))
	for _, m := range res.MSPs {
		keys = append(keys, m.Key())
	}
	sort.Strings(keys)
	return fmt.Sprintf("msps=%v stats=%v", keys, res.Stats.String())
}

// panelPoint is one panel-batching measurement: the member round trips a
// full mining run cost at one panel size, against the same domain and
// crowd as the one-question baseline.
type panelPoint struct {
	// Size is the panel bound (1 = the one-question baseline).
	Size int
	// RoundTrips counts member round trips: answered questions for the
	// baseline, panels for the batched runs.
	RoundTrips int
	// Items counts the questions those round trips carried.
	Items int
	// Confirmable and ConfirmRate report how the priors fared.
	Confirmable int
	ConfirmRate float64
	// Wasted counts answers collected speculatively but never consumed.
	Wasted int
}

// runPanels measures a full mining run per panel size over the panels
// workload and verifies the mined result never moves. Size 1 is the
// one-question baseline: every answer is its own member round trip.
// Larger sizes enable successor speculation to fill the panels, so one
// round trip carries several prior-primed questions. Everything runs at dispatch parallelism 1, so
// the counts are deterministic and the bench gate can diff them.
func runPanels(sizes []int) ([]panelPoint, error) {
	var points []panelPoint
	var want string
	for i, size := range sizes {
		cfg, err := panelsConfig()
		if err != nil {
			return nil, err
		}
		var pt panelPoint
		var res *core.Result
		if size <= 1 {
			res = core.Run(cfg)
			pt = panelPoint{Size: 1,
				RoundTrips: res.Stats.TotalQuestions,
				Items:      res.Stats.TotalQuestions,
			}
		} else {
			cfg.PanelSpeculation = size
			var st panel.Stats
			res, st = panel.Run(cfg, panel.Config{Size: size}, 1)
			pt = panelPoint{Size: size,
				RoundTrips:  st.RoundTrips,
				Items:       st.Items,
				Confirmable: st.Confirmable,
				ConfirmRate: st.ConfirmRate(),
				Wasted:      st.Wasted,
			}
		}
		got := panelsSummary(res)
		if i == 0 {
			want = got
		} else if got != want {
			return nil, fmt.Errorf("panel size %d changed the result:\n got %s\nwant %s", size, got, want)
		}
		points = append(points, pt)
	}
	return points, nil
}

// Panels regenerates the panel-batching scenario: the same crowd-mining
// run one question at a time and panel-first at increasing panel sizes,
// reporting member round trips (the cost panels optimize), round trips
// per member, items per trip, and how the priors fared. The mined MSPs
// and statistics are identical at every size — batching buys round
// trips, never a different answer.
func Panels(sizes []int) (*Report, error) {
	points, err := runPanels(sizes)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "panels",
		Title: "panel batching: member round trips vs one-question dispatch",
		Header: []string{"panel size", "round trips", "trips/member", "items",
			"items/trip", "confirmable", "confirm rate", "wasted"},
	}
	base := points[0].RoundTrips
	for _, pt := range points {
		r.Add(pt.Size, pt.RoundTrips,
			fmt.Sprintf("%.1f", float64(pt.RoundTrips)/panelMembers),
			pt.Items, fmt.Sprintf("%.1f", float64(pt.Items)/float64(pt.RoundTrips)),
			pt.Confirmable, fmt.Sprintf("%.2f", pt.ConfirmRate), pt.Wasted)
	}
	if last := points[len(points)-1]; last.RoundTrips > 0 {
		r.Note("round-trip reduction at size %d: %.1fx over one-question dispatch",
			last.Size, float64(base)/float64(last.RoundTrips))
	}
	r.Note("synthetic domain with 3 planted MSPs, %d oracle members, %d answers per question;",
		panelMembers, panelAnswers)
	r.Note("results are bit-identical at every panel size")
	return r, nil
}
