package experiments

import (
	"fmt"
	"testing"
)

// TestSpamDeterministic: the spam grid is a pure function of its seeds —
// shuffled crowds, spammers and noise included — so a parallel run
// reproduces the sequential rows, one row per crowd.
func TestSpamDeterministic(t *testing.T) {
	seq, err := Spam(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Spam(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(spamCrowds) {
		t.Fatalf("rows = %d, want %d", len(seq.Rows), len(spamCrowds))
	}
	if fmt.Sprint(seq.Rows) != fmt.Sprint(par.Rows) {
		t.Errorf("parallel rows differ:\nseq %v\npar %v", seq.Rows, par.Rows)
	}
}
