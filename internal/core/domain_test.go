package core

import (
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
)

// TestCompileVariantGrid: every stop name, the empty default included,
// resolves through one cache entry. A repeated CompileVariant returns the
// same pointer as a hit, and the two distinct resolved stop policies
// have two distinct fingerprints.
func TestCompileVariantGrid(t *testing.T) {
	s := ontology.NewSample()
	dom, err := NewDomain(s.Voc, s.Onto)
	if err != nil {
		t.Fatal(err)
	}
	q := oassisql.MustParse(figure3Restricted)
	byStop := map[string]string{} // resolved stop name -> fingerprint
	for _, stop := range []string{"", aggregate.StopThreshold, aggregate.StopSpecies} {
		first, _, err := dom.CompileVariant(q, stop, "", nil)
		if err != nil {
			t.Fatalf("%q: %v", stop, err)
		}
		again, hit, err := dom.CompileVariant(q, stop, "", nil)
		if err != nil || !hit || again != first {
			t.Errorf("%q again = %p, hit=%v, err=%v; want %p as a hit", stop, again, hit, err, first)
		}
		if fp, ok := byStop[first.StopName]; ok && fp != first.Fingerprint() {
			t.Errorf("%q resolves to %s with a second fingerprint", stop, first.StopName)
		}
		byStop[first.StopName] = first.Fingerprint()
	}
	fps := map[string]bool{}
	for _, fp := range byStop {
		fps[fp] = true
	}
	if len(byStop) != 2 || len(fps) != 2 {
		t.Errorf("%d resolved stop policies with %d fingerprints, want 2 and 2", len(byStop), len(fps))
	}
	if n := dom.Plans().Len(); n != 2 {
		t.Errorf("cache holds %d plans, want 2", n)
	}
}
