package experiments

import (
	"testing"

	"oassis/internal/plan"
)

// TestOrderingsIdenticalMSPs pins the ordering experiment's two headline
// claims on a small grid: max-prune mines the identical MSP set as
// paper-order (the Orderings call itself hard-fails otherwise), and
// saves questions over paper-order somewhere on the grid (same — the
// call errors when the claim does not hold). The test re-runs one
// cell to assert the rows are deterministic across invocations, which is
// what the bench-compare gate relies on.
func TestOrderingsIdenticalMSPs(t *testing.T) {
	grid := []int{6, 10}
	r, err := Orderings(grid)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(grid) * len(plan.OrderingNames())
	if len(r.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(r.Rows), wantRows)
	}
	a, err := runOrderingCell(10, plan.PolicyMaxPrune)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOrderingCell(10, plan.PolicyMaxPrune)
	if err != nil {
		t.Fatal(err)
	}
	if a.Questions != b.Questions {
		t.Errorf("max-prune question count drifted between runs: %d then %d", a.Questions, b.Questions)
	}
}
