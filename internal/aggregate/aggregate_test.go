package aggregate

import (
	"fmt"
	"testing"
)

func TestFixedSampleLifecycle(t *testing.T) {
	a := NewFixedSample(5)
	const q = "q1"
	for i := 0; i < 4; i++ {
		if !a.Record(q, fmt.Sprintf("m%d", i), 0.5) {
			t.Fatal("fresh answer rejected")
		}
		if v := a.Verdict(q, 0.4); v != Undecided {
			t.Fatalf("verdict after %d answers = %v", i+1, v)
		}
	}
	a.Record(q, "m4", 0.5)
	if v := a.Verdict(q, 0.4); v != Significant {
		t.Errorf("verdict = %v, want significant (mean 0.5 ≥ 0.4)", v)
	}
	if v := a.Verdict(q, 0.6); v != Insignificant {
		t.Errorf("verdict = %v, want insignificant at theta 0.6", v)
	}
	if a.Answers(q) != 5 {
		t.Errorf("Answers = %d", a.Answers(q))
	}
	if a.Mean(q) != 0.5 {
		t.Errorf("Mean = %v", a.Mean(q))
	}
}

func TestFixedSampleDuplicateMember(t *testing.T) {
	a := NewFixedSample(2)
	if !a.Record("q", "alice", 1) {
		t.Fatal("first answer rejected")
	}
	if a.Record("q", "alice", 0) {
		t.Fatal("duplicate answer accepted")
	}
	if a.Answers("q") != 1 {
		t.Errorf("Answers = %d, want 1", a.Answers("q"))
	}
	if a.Mean("q") != 1 {
		t.Errorf("Mean changed by duplicate: %v", a.Mean("q"))
	}
}

func TestFixedSampleUnknownQuestion(t *testing.T) {
	a := NewFixedSample(3)
	if a.Verdict("nope", 0.5) != Undecided || a.Answers("nope") != 0 || a.Mean("nope") != 0 {
		t.Error("unknown question should be undecided/0")
	}
	if NewFixedSample(0).K != 1 {
		t.Error("K floor not applied")
	}
}

func TestFixedSampleExactThreshold(t *testing.T) {
	// The paper uses "average support exceeds the threshold" with ≥
	// semantics in Example 3.1 (5/12 ≥ 0.4 significant).
	a := NewFixedSample(2)
	a.Record("q", "u1", 0.25)
	a.Record("q", "u2", 0.75)
	if v := a.Verdict("q", 0.5); v != Significant {
		t.Errorf("verdict at exact threshold = %v", v)
	}
}
