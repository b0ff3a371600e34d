package core_test

import (
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/panel"
	"oassis/internal/synth"
)

// TestStopPolicyConcurrentDispatch drives one session with 16 questions in
// flight through the panel dispatcher (one question per panel) while the
// spam filter grades the answer stream of a crowd with planted spammers
// and a species policy watches the discoveries — the race detector's view
// of member bans and the stop policy on the engine hot path while members
// answer on worker goroutines.
func TestStopPolicyConcurrentDispatch(t *testing.T) {
	d, err := synth.GenerateDomain(synth.DomainConfig{
		Name: "travel", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 6, Seed: 101,
		Spammers: 2, Spam: synth.SpamMixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The spammers answer third and sixth, inside the 5-answer sample.
	ms := d.Members
	members := []crowd.Member{ms[0], ms[1], ms[8], ms[2], ms[3], ms[9], ms[4], ms[5], ms[6], ms[7]}
	stop := aggregate.NewSpeciesStop()
	res, _ := panel.Run(core.Config{
		Space:      d.Sp,
		Theta:      0.2,
		Members:    members,
		Agg:        aggregate.NewFixedSample(5),
		Stop:       stop,
		SpamFilter: true,
	}, panel.Config{Size: 1}, 16)
	if len(res.MSPs) == 0 {
		t.Error("concurrent run mined no MSPs")
	}
	if res.Stats.BannedMembers == 0 {
		t.Error("no spammer banned under concurrent dispatch")
	}
	if est := stop.Estimate(); est < 0 || est > 1 {
		t.Errorf("estimate %v outside [0, 1]", est)
	}
}
