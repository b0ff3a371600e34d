package experiments

import (
	"fmt"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// The spam experiment's fixed settings: 5 answers per question, θ 0.2,
// and a question budget that ends the runs spammers would otherwise keep
// alive.
const (
	spamSample    = 5
	spamTheta     = 0.2
	spamBudget    = 2000
	spamNoiseProb = 0.2 // noisy-honest: chance an answer is one step off
)

// spamPatterns is the planted-pattern grid crossed with the seed sweep.
var spamPatterns = []int{6, 10}

// spamCrowd is one row of the experiment: the crowd mined with.
type spamCrowd struct {
	label    string
	spammers int
	kind     synth.SpamKind
	noisy    bool // honest members answer through crowd.Noisy
}

var spamCrowds = []spamCrowd{
	{label: "honest"},
	{label: "noisy-honest", noisy: true},
	{label: "10% random", spammers: 1, kind: synth.SpamRandom},
	{label: "10% always-yes", spammers: 1, kind: synth.SpamYes},
	{label: "10% mixed", spammers: 1, kind: synth.SpamMixed},
	{label: "25% random", spammers: 3, kind: synth.SpamRandom},
	{label: "25% always-yes", spammers: 3, kind: synth.SpamYes},
	{label: "25% mixed", spammers: 3, kind: synth.SpamMixed},
}

// spamRun is the outcome of one mining run.
type spamRun struct {
	msps           map[string]bool
	questions      int
	banned, honest int // members banned; honest members among them
	capped         bool
}

// spamMine mines domain point i — seed i/len(spamPatterns)+1 with the
// i%len(spamPatterns)-th pattern count — with crowd c, with or without
// the spam filter. honestOnly drops the spammers (and the noise) but
// keeps the honest members in the same relative order, which is the run
// the others are scored against.
func spamMine(i int, c spamCrowd, filter, honestOnly bool) (spamRun, error) {
	d, err := synth.SpamDomain(int64(i/len(spamPatterns)+1), spamPatterns[i%len(spamPatterns)],
		c.spammers, c.kind)
	if err != nil {
		return spamRun{}, err
	}
	var mining []crowd.Member
	honestIDs := make(map[string]bool)
	for k, m := range d.Members {
		_, honest := m.(*crowd.SimMember)
		honestIDs[m.ID()] = honest
		switch {
		case honestOnly && !honest:
			continue
		case c.noisy && !honestOnly:
			m = &crowd.Noisy{Member: m, P: spamNoiseProb, Seed: d.Cfg.Seed*31 + int64(k)}
		}
		mining = append(mining, m)
	}
	res := core.Run(core.Config{
		Space: d.Sp, Theta: spamTheta, Members: mining,
		Agg:          aggregate.NewFixedSample(spamSample),
		MaxQuestions: spamBudget,
		SpamFilter:   filter,
		Metrics:      sharedMetrics(),
	})
	out := spamRun{
		msps:      make(map[string]bool, len(res.MSPs)),
		questions: res.Stats.TotalQuestions,
		banned:    len(res.Banned),
		capped:    res.Stats.TotalQuestions >= spamBudget,
	}
	for _, m := range res.MSPs {
		out.msps[d.Sp.Format(m)] = true
	}
	for _, id := range res.Banned {
		if honestIDs[id] {
			out.honest++
		}
	}
	return out, nil
}

// spamTally pools one (crowd, filter) cell over the sweep.
type spamTally struct {
	hit, found, truth int
	exact, capped     int
}

// add scores one run against the honest crowd's MSPs.
func (t *spamTally) add(run spamRun, truth map[string]bool) {
	hit := 0
	for k := range run.msps {
		if truth[k] {
			hit++
		}
	}
	t.hit += hit
	t.found += len(run.msps)
	t.truth += len(truth)
	if hit == len(run.msps) && hit == len(truth) {
		t.exact++
	}
	if run.capped {
		t.capped++
	}
}

// Spam measures the spam filter (§4.2 crowd-member selection) against
// planted spammers. Each of `seeds` seeds × the pattern grid is one
// generated domain; each crowd row mines it without and with the filter
// and is scored against the MSPs the honest members alone find, in the
// same member order: precision (P) and recall (R) pool exact MSP matches
// over the domains, "exact" counts domains whose MSP set equals the
// honest one, "capped" counts runs that hit the question budget, "banned"
// totals the members the filter banned and "honest banned" the honest
// ones among them, and "same" counts domains where the filter gave the
// same MSPs and question count as no filter. Everything is seeded, so
// the rows are deterministic at any parallelism.
func Spam(seeds, parallel int) (*Report, error) {
	n := seeds * len(spamPatterns)
	truth := make([]spamRun, n)
	err := RunGrid(parallel, n, func(i int) error {
		var err error
		truth[i], err = spamMine(i, spamCrowds[0], false, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	nc := len(spamCrowds)
	runs := make([]spamRun, 2*n*nc) // (domain, crowd, filter off/on)
	err = RunGrid(parallel, len(runs), func(j int) error {
		var err error
		runs[j], err = spamMine(j/(2*nc), spamCrowds[j/2%nc], j%2 == 1, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "spam",
		Title: "spam filter vs planted spammers: MSP precision and recall against the honest crowd",
		Header: []string{"crowd", "domains", "none P", "none R", "none exact", "none capped",
			"ban P", "ban R", "ban exact", "ban capped", "banned", "honest banned", "same"},
	}
	for c, sc := range spamCrowds {
		var none, ban spamTally
		banned, honest, same := 0, 0, 0
		for i := 0; i < n; i++ {
			off, on := runs[2*(i*nc+c)], runs[2*(i*nc+c)+1]
			none.add(off, truth[i].msps)
			ban.add(on, truth[i].msps)
			banned += on.banned
			honest += on.honest
			if on.questions == off.questions && sameKeys(on.msps, off.msps) {
				same++
			}
		}
		r.Add(sc.label, n,
			ratio(none.hit, none.found), ratio(none.hit, none.truth), none.exact, none.capped,
			ratio(ban.hit, ban.found), ratio(ban.hit, ban.truth), ban.exact, ban.capped,
			banned, honest, same)
	}
	r.Note("%d honest members, +1 spammer (≈10%%) or +3 (≈25%%); member order shuffled per seed", synth.SpamHonest)
	r.Note("seeds 1–%d × patterns %v; %d answers per question, theta %.1f, budget %d questions",
		seeds, spamPatterns, spamSample, spamTheta, spamBudget)
	r.Note("truth: the honest members alone in the same order; noisy-honest: each answer one step off w.p. %.1f", spamNoiseProb)
	return r, nil
}

// ratio renders num/den to two decimals (n/a for an empty denominator).
func ratio(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(num)/float64(den))
}
