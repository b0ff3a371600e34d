package panel_test

import (
	"fmt"
	"testing"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/panel"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// slowMember answers like its wrapped member after a fixed delay, the
// regime crowd answers arrive in: wall clock then measures how many
// questions are in flight at once, not CPU time.
type slowMember struct {
	crowd.Member
	delay time.Duration
}

func (m slowMember) Concrete(fs fact.Set) float64 {
	time.Sleep(m.delay)
	return m.Member.Concrete(fs)
}

func (m slowMember) ChooseSpecialization(cands []fact.Set) crowd.SpecializeResponse {
	time.Sleep(m.delay)
	return m.Member.ChooseSpecialization(cands)
}

func (m slowMember) Irrelevant(terms []vocab.Term) (vocab.Term, bool) {
	time.Sleep(m.delay)
	return m.Member.Irrelevant(terms)
}

// slowConfig builds a small synthetic space with three planted MSPs,
// mined by 12 slow oracles with 8 answers per question, so up to 8
// questions are genuinely useful in flight at once.
func slowConfig(t *testing.T, delay time.Duration) core.Config {
	t.Helper()
	sp, err := synth.GenerateSpace(synth.DAGConfig{
		Width: 4, Depth: 2, XWidth: 2, XDepth: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := sp.PlantMSPs(synth.MSPConfig{Count: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]crowd.Member, 12)
	for i := range members {
		members[i] = slowMember{synth.NewOracle(fmt.Sprintf("m%02d", i), sp, planted), delay}
	}
	return core.Config{
		Space:   sp.Sp,
		Theta:   0.5,
		Members: members,
		Agg:     aggregate.NewFixedSample(8),
	}
}

// TestRunParallelSpeedup: with answers costing wall clock, dispatching one
// question per panel at parallelism 8 finishes in well under half the
// sequential time, never has more than 8 panels in flight, and mines the
// identical result.
func TestRunParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	const delay = 10 * time.Millisecond
	run := func(parallelism int) (*core.Result, panel.Stats, time.Duration) {
		cfg := slowConfig(t, delay)
		start := time.Now()
		res, st := panel.Run(cfg, panel.Config{Size: 1}, parallelism)
		return res, st, time.Since(start)
	}
	seqRes, _, seq := run(1)
	parRes, parSt, par := run(8)
	if par >= seq/2 {
		t.Fatalf("parallelism 8 took %v, want < half of sequential %v", par, seq)
	}
	if parSt.MaxInFlight > 8 {
		t.Fatalf("MaxInFlight = %d, want <= 8", parSt.MaxInFlight)
	}
	if seqRes.Stats.TotalQuestions != parRes.Stats.TotalQuestions {
		t.Fatalf("question count moved: %d sequential vs %d parallel",
			seqRes.Stats.TotalQuestions, parRes.Stats.TotalQuestions)
	}
	if got, want := renderRun(parRes), renderRun(seqRes); got != want {
		t.Fatalf("parallelism 8 changed the result:\n got %s\nwant %s", got, want)
	}
}
