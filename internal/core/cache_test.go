package core

import (
	"reflect"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/fact"
)

// TestCacheDuplicateMember: a member's repeated answer to a question is
// ignored — the first answer, the count and the running sum stand — in the
// run's question table and in the string-keyed Cache alike.
func TestCacheDuplicateMember(t *testing.T) {
	var qs questionTable
	q := &qs.all[qs.intern(fact.Set{{S: 1, R: 1, O: 1}})]
	if !q.record(0, 1, 2) {
		t.Fatal("first answer rejected")
	}
	if q.record(0, 0, 2) {
		t.Fatal("duplicate answer accepted")
	}
	if len(q.answers) != 1 || q.mean() != 1 {
		t.Errorf("answers=%d mean=%v, want 1, 1", len(q.answers), q.mean())
	}
	if s, ok := q.support(0); !ok || s != 1 {
		t.Errorf("support = %v, %v; want the first answer", s, ok)
	}
	if _, ok := q.support(1); ok {
		t.Error("a member who never answered has support")
	}
	c := NewCache()
	c.Record("q", "alice", 1)
	c.Record("q", "alice", 0)
	if s, ok := c.Lookup("q", "alice"); !ok || s != 1 || c.Len() != 1 {
		t.Errorf("Lookup = %v, %v, Len %d; want the first answer, Len 1", s, ok, c.Len())
	}
	if _, ok := c.Lookup("nope", "alice"); ok {
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
