package core

import (
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/plan"
)

// TestCompileVariantGrid: every (stop, ordering) pair, the empty defaults
// included, resolves through one cache entry. A repeated CompileVariant
// returns the same pointer as a hit, and the six distinct resolved pairs
// have six distinct fingerprints.
func TestCompileVariantGrid(t *testing.T) {
	s := ontology.NewSample()
	dom, err := NewDomain(s.Voc, s.Onto)
	if err != nil {
		t.Fatal(err)
	}
	q := oassisql.MustParse(figure3Restricted)
	byPair := map[[2]string]string{} // resolved (stop, ordering) -> fingerprint
	for _, stop := range []string{"", aggregate.StopThreshold, aggregate.StopSpecies, aggregate.StopAccuracy} {
		for _, policy := range append([]string{""}, plan.OrderingNames()...) {
			first, _, err := dom.CompileVariant(q, stop, policy, nil)
			if err != nil {
				t.Fatalf("(%q, %q): %v", stop, policy, err)
			}
			again, hit, err := dom.CompileVariant(q, stop, policy, nil)
			if err != nil || !hit || again != first {
				t.Errorf("(%q, %q) again = %p, hit=%v, err=%v; want %p as a hit", stop, policy, again, hit, err, first)
			}
			pair := [2]string{first.StopName, first.PolicyName}
			if fp, ok := byPair[pair]; ok && fp != first.Fingerprint() {
				t.Errorf("(%q, %q) resolves to %v with a second fingerprint", stop, policy, pair)
			}
			byPair[pair] = first.Fingerprint()
		}
	}
	fps := map[string]bool{}
	for _, fp := range byPair {
		fps[fp] = true
	}
	if len(byPair) != 6 || len(fps) != 6 {
		t.Errorf("%d resolved pairs with %d fingerprints, want 6 and 6", len(byPair), len(fps))
	}
	if n := dom.Plans().Len(); n != 6 {
		t.Errorf("cache holds %d plans, want 6", n)
	}
}
