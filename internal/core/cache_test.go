package core

import (
	"reflect"
	"testing"

	"oassis/internal/aggregate"
)

// TestCacheDuplicateMember: a member's repeated answer to a question is
// ignored — the first answer, the count and the running sum stand.
func TestCacheDuplicateMember(t *testing.T) {
	c := NewCache()
	if _, isNew := c.record("q", "alice", 1); !isNew {
		t.Fatal("first answer rejected")
	}
	if _, isNew := c.record("q", "alice", 0); isNew {
		t.Fatal("duplicate answer accepted")
	}
	q := c.question("q")
	if q.answers() != 1 || q.mean() != 1 || c.Len() != 1 {
		t.Errorf("answers=%d mean=%v Len=%d, want 1, 1, 1", q.answers(), q.mean(), c.Len())
	}
	if s, ok := c.Lookup("q", "alice"); !ok || s != 1 {
		t.Errorf("Lookup = %v, %v; want the first answer", s, ok)
	}
	if c.question("nope").answers() != 0 || c.question("nope").mean() != 0 {
		t.Error("unknown question should hold no answers")
	}
}

// TestConfigRunsTwice: a Config carries no answers between runs, so two
// runs on one Config value mine the same MSPs with the same statistics.
func TestConfigRunsTwice(t *testing.T) {
	s, _, sp := buildSpace(t, figure3Restricted)
	cfg := Config{Space: sp, Theta: 0.2, Members: sampleMembers(s), Agg: aggregate.NewFixedSample(2)}
	first, second := Run(cfg), Run(cfg)
	if got, want := sortedNames(sp, second.MSPs), sortedNames(sp, first.MSPs); !reflect.DeepEqual(got, want) {
		t.Errorf("second run MSPs %v, first %v", got, want)
	}
	if !reflect.DeepEqual(second.Stats, first.Stats) {
		t.Errorf("second run stats %+v, first %+v", second.Stats, first.Stats)
	}
}
