package experiments

import (
	"fmt"
	"sort"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// orderingDomain generates one taxonomy domain for the ordering sweep and
// pins its members to order-insensitive behavior: no RNG (a member's
// answer stream must be a pure function of the question, not of the order
// questions arrive in), always-accepted specializations, no pruning
// clicks. With members held fixed this way, the mined MSP set is a pure
// property of the domain — so any difference between orderings is a
// correctness bug, and the question count is the only thing a policy can
// change.
func orderingDomain(patterns int) (*synth.Domain, error) {
	d, err := synth.GenerateDomain(synth.DomainConfig{
		Name: "orderings", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: patterns, Seed: 101,
	})
	if err != nil {
		return nil, err
	}
	for _, m := range d.Members {
		sm := m.(*crowd.SimMember)
		sm.Rng = nil
		sm.SpecializeProb = 1
		sm.PruneProb = 0
	}
	return d, nil
}

// orderingCell is one (domain, policy) run of the sweep.
type orderingCell struct {
	Questions int
	MSPs      []string
	Elapsed   time.Duration
}

func runOrderingCell(patterns int, policy string) (orderingCell, error) {
	var c orderingCell
	d, err := orderingDomain(patterns)
	if err != nil {
		return c, err
	}
	start := time.Now()
	res := core.Run(core.Config{
		Space: d.Sp, Theta: 0.2, Members: d.Members,
		Agg:      aggregate.NewFixedSample(3),
		Ordering: policy,
	})
	c.Elapsed = time.Since(start)
	c.Questions = res.Stats.TotalQuestions
	for _, m := range res.MSPs {
		c.MSPs = append(c.MSPs, d.Sp.Format(m))
	}
	sort.Strings(c.MSPs)
	return c, nil
}

// Orderings sweeps both question orderings (paper-order and max-prune)
// over a grid of seeded taxonomy domains, measuring the crowd questions
// each needs to mine the (identical) MSP set. The members are
// deterministic and order-insensitive, so the sweep hard-fails if
// max-prune mines a different MSP set than paper-order — determinism is
// the contract, the question count is the experiment. It also hard-fails
// if max-prune saves no questions over paper-order anywhere on the grid.
// Rows are seeded-deterministic for the bench-compare gate; wall-clock
// lives in the notes, which the gate does not diff.
func Orderings(patternGrid []int) (*Report, error) {
	r := &Report{
		ID:     "orderings",
		Title:  "question-ordering policies: questions asked for the same MSP set",
		Header: []string{"patterns", "policy", "questions", "saved", "msps"},
	}
	var paperElapsed, maxElapsed time.Duration
	saved := false
	for _, p := range patternGrid {
		base, err := runOrderingCell(p, plan.PolicyPaperOrder)
		if err != nil {
			return nil, err
		}
		paperElapsed += base.Elapsed
		r.Add(p, plan.PolicyPaperOrder, base.Questions, pct(0, base.Questions), len(base.MSPs))
		c, err := runOrderingCell(p, plan.PolicyMaxPrune)
		if err != nil {
			return nil, err
		}
		maxElapsed += c.Elapsed
		if fmt.Sprint(c.MSPs) != fmt.Sprint(base.MSPs) {
			return nil, fmt.Errorf("orderings: max-prune mined a different MSP set than paper-order at %d patterns:\npaper-order: %v\nmax-prune: %v",
				p, base.MSPs, c.MSPs)
		}
		if c.Questions < base.Questions {
			saved = true
		}
		r.Add(p, plan.PolicyMaxPrune, c.Questions, pct(base.Questions-c.Questions, base.Questions), len(c.MSPs))
	}
	if !saved {
		return nil, fmt.Errorf("orderings: max-prune saved no questions over paper-order on any domain")
	}
	r.Note("every policy mines the identical MSP set (hard-checked); saved = questions vs paper-order")
	r.Note("8 deterministic members, 3 answers per question, theta 0.2, seeded synthetic domains")
	r.Note("wall-clock %s: %.3fs over the grid", plan.PolicyMaxPrune, maxElapsed.Seconds())
	r.Note("wall-clock %s: %.3fs over the grid", plan.PolicyPaperOrder, paperElapsed.Seconds())
	return r, nil
}
