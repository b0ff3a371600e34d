package plan_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"oassis/internal/fact"
	"oassis/internal/ontology"
	"oassis/internal/plan"
	"oassis/internal/rdfio"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// fmtDomainFingerprint is DomainFingerprint as it was written with three
// fmt calls per term, kept as the oracle of the byte-append dump.
func fmtDomainFingerprint(voc *vocab.Vocabulary, onto *ontology.Ontology) string {
	h := sha256.New()
	for t := 0; t < voc.Len(); t++ {
		term := vocab.Term(t)
		fmt.Fprintf(h, "%d\x00%s\x00%s\x00", t, voc.Name(term), voc.KindOf(term))
		for _, c := range voc.Children(term) {
			fmt.Fprintf(h, "%d,", c)
		}
		fmt.Fprint(h, "\x00")
	}
	if onto != nil {
		if err := rdfio.Write(h, onto); err != nil {
			fmt.Fprintf(h, "write-error:%v", err)
		}
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// oddNames builds a small frozen domain whose term names hold commas,
// NULs, the dump's own separators and multi-byte UTF-8, with an order
// edge between odd names and a fact over them.
func oddNames(t testing.TB) (*vocab.Vocabulary, *ontology.Ontology) {
	t.Helper()
	v := vocab.New()
	a := v.MustAddElement("a,b")
	b := v.MustAddElement("x\x00y")
	c := v.MustAddElement("ünïcødé ✓ 水")
	d := v.MustAddElement("12,\x00,3")
	r := v.MustAddRelation("rél,\x00")
	v.MustAddOrder(a, b)
	v.MustAddOrder(a, c)
	v.MustAddOrder(b, d)
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	o := ontology.New(v)
	o.MustAdd(fact.Fact{S: c, R: r, O: d})
	return v, o
}

// TestDomainFingerprintMatchesFmt: the byte-append dump hashes exactly the
// bytes the fmt dump did, over the travel and culinary domains, Figure 1
// with and without its ontology, generated DAGs with and without second
// parents, and a vocabulary of names holding commas, NULs and UTF-8.
func TestDomainFingerprintMatchesFmt(t *testing.T) {
	check := func(what string, voc *vocab.Vocabulary, onto *ontology.Ontology) {
		t.Helper()
		if got, want := plan.DomainFingerprint(voc, onto), fmtDomainFingerprint(voc, onto); got != want {
			t.Fatalf("%s: DomainFingerprint = %s, fmt oracle %s", what, got, want)
		}
	}
	for _, cfg := range []synth.DomainConfig{synth.Travel, synth.Culinary} {
		d, err := synth.GenerateDomain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.Onto == nil {
			t.Fatalf("%s has no ontology: the check needs the rdfio.Write branch", cfg.Name)
		}
		check(cfg.Name, d.Voc, d.Onto)
	}
	s := ontology.NewSample()
	check("figure 1", s.Voc, s.Onto)
	check("figure 1 vocabulary", s.Voc, nil)
	for seed, extra := range []float64{0, 0.3} {
		sp, err := synth.GenerateSpace(synth.DAGConfig{Width: 200, Depth: 5, XWidth: 20, XDepth: 3,
			ExtraParentProb: extra, Multiplicities: true, Seed: int64(seed + 1)})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("synth DAG, extra parents %.1f", extra), sp.Voc, nil)
	}
	v, o := oddNames(t)
	check("odd names", v, o)
	check("odd names vocabulary", v, nil)
}

// TestPlanMarshalRoundTrip: a plan keeps no copy of its IR, so MarshalJSON
// renders it afresh on every call; two calls must return equal bytes, and
// those bytes must hash to the plan's fingerprint, for compiled plans and
// for plans wrapped from a built space.
func TestPlanMarshalRoundTrip(t *testing.T) {
	check := func(what string, pl *plan.Plan) {
		t.Helper()
		js1, err := pl.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		js2, err := pl.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js1, js2) {
			t.Fatalf("%s: two MarshalJSON calls differ:\n%s\n---\n%s", what, js1, js2)
		}
		sum := sha256.Sum256(js1)
		if got := "sha256:" + hex.EncodeToString(sum[:]); got != pl.Fingerprint() {
			t.Fatalf("%s: sha256 of MarshalJSON is %s, Fingerprint %s", what, got, pl.Fingerprint())
		}
	}
	v, o, q := captureDomain(t, 6)
	compiled, err := plan.Compile(v, o, q, plan.DomainFingerprint(v, o))
	if err != nil {
		t.Fatal(err)
	}
	check("compiled capture query", compiled)
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	travel, err := d.Plan(0.2)
	if err != nil {
		t.Fatal(err)
	}
	check("travel", travel)
	s, err := synth.GenerateSpace(synth.DAGConfig{Width: 50, Depth: 4, Multiplicities: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lattice, err := plan.FromSpace("synth:lattice", 0.5, false, plan.DomainFingerprint(s.Voc, nil), s.Sp)
	if err != nil {
		t.Fatal(err)
	}
	check("synth lattice", lattice)
}

// BenchmarkDomainFingerprint measures the domain dump and hash, the work
// done once per core.Domain and once per generated lattice input: over a
// width-500, depth-7 synthetic DAG (vocabulary only), and over the travel
// domain with its ontology's Turtle serialization.
func BenchmarkDomainFingerprint(b *testing.B) {
	s, err := synth.GenerateSpace(synth.DAGConfig{Width: 500, Depth: 7, Multiplicities: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		voc  *vocab.Vocabulary
		onto *ontology.Ontology
	}{{"lattice", s.Voc, nil}, {"travel", d.Voc, d.Onto}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.DomainFingerprint(c.voc, c.onto)
			}
		})
	}
}
