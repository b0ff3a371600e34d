package aggregate

import "testing"

func TestFixedSampleLifecycle(t *testing.T) {
	a := NewFixedSample(5)
	sum := 0.0
	for n := 1; n < 5; n++ {
		sum += 0.5
		if v := a.Verdict(n, sum, 0.4); v != Undecided {
			t.Fatalf("verdict after %d answers = %v", n, v)
		}
	}
	sum += 0.5
	if v := a.Verdict(5, sum, 0.4); v != Significant {
		t.Errorf("verdict = %v, want significant (mean 0.5 ≥ 0.4)", v)
	}
	if v := a.Verdict(5, sum, 0.6); v != Insignificant {
		t.Errorf("verdict = %v, want insignificant at theta 0.6", v)
	}
}

func TestFixedSampleUnknownQuestion(t *testing.T) {
	if NewFixedSample(0).K != 1 {
		t.Error("K floor not applied")
	}
	if v := NewFixedSample(1).Verdict(0, 0, 0); v != Undecided {
		t.Errorf("a question nobody answered is decided: %v", v)
	}
	if v := (&FixedSample{}).Verdict(0, 0, 0); v != Undecided {
		t.Errorf("K 0, no answers decided a question: %v", v)
	}
}

func TestFixedSampleExactThreshold(t *testing.T) {
	// The paper uses "average support exceeds the threshold" with ≥
	// semantics in Example 3.1 (5/12 ≥ 0.4 significant).
	if v := NewFixedSample(2).Verdict(2, 0.25+0.75, 0.5); v != Significant {
		t.Errorf("verdict at exact threshold = %v", v)
	}
}
