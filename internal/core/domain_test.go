package core

import (
	"testing"

	"oassis/internal/oassisql"
	"oassis/internal/ontology"
)

// TestCompileVariantGrid: a repeated CompileVariant returns the same
// pointer as a cache hit, whatever its unused string arguments say, and
// the domain's cache holds one plan.
func TestCompileVariantGrid(t *testing.T) {
	s := ontology.NewSample()
	dom, err := NewDomain(s.Voc, s.Onto)
	if err != nil {
		t.Fatal(err)
	}
	q := oassisql.MustParse(figure3Restricted)
	first, hit, err := dom.CompileVariant(q, "", "", nil)
	if err != nil || hit {
		t.Fatalf("first CompileVariant: hit=%v err=%v, want a miss", hit, err)
	}
	again, hit, err := dom.CompileVariant(q, "species", "", nil)
	if err != nil || !hit || again != first {
		t.Errorf("again = %p, hit=%v, err=%v; want %p as a hit", again, hit, err, first)
	}
	if n := dom.Plans().Len(); n != 1 {
		t.Errorf("cache holds %d plans, want 1", n)
	}
}
