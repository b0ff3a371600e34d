package plan_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/plan"
	"oassis/internal/vocab"
)

// captureDomain builds the flat §4.1 itemset-capture domain: items as
// elements, one relation, and the query `$x+ [] []` with an empty WHERE.
func captureDomain(t *testing.T, items int) (*vocab.Vocabulary, *ontology.Ontology, *oassisql.Query) {
	t.Helper()
	v := vocab.New()
	for i := 0; i < items; i++ {
		v.MustAddElement(fmt.Sprintf("item%02d", i))
	}
	v.MustAddRelation("has")
	v.MustAddElement("basket")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	q := &oassisql.Query{
		Select:  oassisql.SelectFactSets,
		Support: 0.25,
		Satisfying: []oassisql.Pattern{{
			S:     oassisql.Var("x"),
			SMult: oassisql.MultPlus,
			R:     oassisql.Atom{Kind: oassisql.AtomAny},
			O:     oassisql.Atom{Kind: oassisql.AtomAny},
			OMult: oassisql.MultOne,
		}},
	}
	return v, ontology.New(v), q
}

// TestPolicyOrder pins the paper's §4 traversal order — smallest size
// first, key ascending on ties — the one order the engine asks in. A
// member who finds every pattern insignificant settles nothing by
// inference among the lattice's incomparable minimal nodes, so the run
// asks exactly those nodes, in that order.
func TestPolicyOrder(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	pl, err := plan.Compile(v, o, q, plan.DomainFingerprint(v, o))
	if err != nil {
		t.Fatal(err)
	}
	sp := pl.NewSpace()
	minimal := sp.Minimal()
	sort.Slice(minimal, func(i, j int) bool {
		if minimal[i].Size() != minimal[j].Size() {
			return minimal[i].Size() < minimal[j].Size()
		}
		return minimal[i].Key() < minimal[j].Key()
	})
	var want []string
	for _, m := range minimal {
		want = append(want, sp.Instantiate(m).Key())
	}
	var asked []string
	core.Run(core.Config{
		Space:   sp,
		Theta:   pl.Support,
		Members: []crowd.Member{neverMember{&asked}},
	})
	if len(want) < 2 || !reflect.DeepEqual(asked, want) {
		t.Errorf("asked %v, want %v", asked, want)
	}
}

// neverMember answers support 0 to every concrete question and records
// it.
type neverMember struct{ asked *[]string }

func (neverMember) ID() string { return "never" }

func (m neverMember) Concrete(fs fact.Set) float64 {
	*m.asked = append(*m.asked, fs.Key())
	return 0
}

func (neverMember) ChooseSpecialization([]fact.Set) crowd.SpecializeResponse {
	return crowd.SpecializeResponse{}
}

func (neverMember) Irrelevant([]vocab.Term) (vocab.Term, bool) { return 0, false }

func TestDomainFingerprint(t *testing.T) {
	build := func(extra bool) (*vocab.Vocabulary, *ontology.Ontology) {
		v := vocab.New()
		a := v.MustAddElement("a")
		b := v.MustAddElement("b")
		r := v.MustAddRelation("r")
		if err := v.Freeze(); err != nil {
			t.Fatal(err)
		}
		o := ontology.New(v)
		o.MustAdd(fact.Fact{S: a, R: r, O: b})
		if extra {
			o.MustAdd(fact.Fact{S: b, R: r, O: a})
		}
		return v, o
	}
	v1, o1 := build(false)
	v2, o2 := build(false)
	fp1, fp2 := plan.DomainFingerprint(v1, o1), plan.DomainFingerprint(v2, o2)
	if fp1 != fp2 {
		t.Errorf("identical domains fingerprint differently: %s vs %s", fp1, fp2)
	}
	if !strings.HasPrefix(fp1, "sha256:") {
		t.Errorf("fingerprint %q lacks scheme prefix", fp1)
	}
	v3, o3 := build(true)
	if fp3 := plan.DomainFingerprint(v3, o3); fp3 == fp1 {
		t.Error("ontology drift did not change the fingerprint")
	}
	if fpNil := plan.DomainFingerprint(v1, nil); fpNil == fp1 || !strings.HasPrefix(fpNil, "sha256:") {
		t.Errorf("nil-ontology fingerprint %q", fpNil)
	}
}

func TestCompile(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	fp := plan.DomainFingerprint(v, o)
	pl, err := plan.Compile(v, o, q, fp)
	if err != nil {
		t.Fatal(err)
	}
	// Empty WHERE is the §4.1 itemset-capture form: classic substrate.
	if pl.SubstrateName != plan.SubstrateItemset {
		t.Errorf("substrate = %q, want %q", pl.SubstrateName, plan.SubstrateItemset)
	}
	// A space wrapped without a WHERE analysis is labelled assoc.
	sp, err := assign.NewSpace(v, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := plan.FromSpace(q.String(), q.Support, false, fp, sp)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.SubstrateName != plan.SubstrateAssoc {
		t.Errorf("FromSpace substrate = %q, want %q", wrapped.SubstrateName, plan.SubstrateAssoc)
	}
	if pl.DomainFP != fp {
		t.Errorf("domain fp = %q, want %q", pl.DomainFP, fp)
	}
	if !strings.HasPrefix(pl.Fingerprint(), "sha256:") {
		t.Errorf("fingerprint %q", pl.Fingerprint())
	}
	if pl.Vocabulary() != v {
		t.Error("plan lost its vocabulary")
	}

	// Compiling the same query twice yields the same content address.
	pl2, err := plan.Compile(v, o, q, fp)
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Fingerprint() != pl.Fingerprint() {
		t.Errorf("recompile changed fingerprint: %s vs %s", pl2.Fingerprint(), pl.Fingerprint())
	}

	// The serialized IR is canonical JSON with resolved names.
	js, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	var ir map[string]interface{}
	if err := json.Unmarshal(js, &ir); err != nil {
		t.Fatalf("plan IR is not valid JSON: %v", err)
	}
	for _, key := range []string{"query", "support", "domain", "policy", "substrate", "vars", "sat", "valid_base"} {
		if _, ok := ir[key]; !ok {
			t.Errorf("plan IR missing %q:\n%s", key, js)
		}
	}

	// An unfrozen vocabulary cannot be planned against.
	if _, err := plan.Compile(vocab.New(), nil, q, "x"); err == nil {
		t.Error("Compile accepted an unfrozen vocabulary")
	}
}

// TestNewSpaceEquivalence: the space rebuilt from a plan's frozen parts
// must match the directly constructed space in every exported part.
func TestNewSpaceEquivalence(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	direct, err := assign.NewSpace(v, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(v, o, q, plan.DomainFingerprint(v, o))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := pl.NewSpace()
	if rebuilt.Voc != direct.Voc {
		t.Error("vocabulary differs")
	}
	if !reflect.DeepEqual(rebuilt.Vars, direct.Vars) {
		t.Errorf("Vars differ: %+v vs %+v", rebuilt.Vars, direct.Vars)
	}
	if !reflect.DeepEqual(rebuilt.Sat, direct.Sat) {
		t.Errorf("Sat differs: %+v vs %+v", rebuilt.Sat, direct.Sat)
	}
	if !reflect.DeepEqual(rebuilt.ValidBase, direct.ValidBase) {
		t.Errorf("ValidBase differs: %v vs %v", rebuilt.ValidBase, direct.ValidBase)
	}
	if rebuilt.More != direct.More {
		t.Error("More differs")
	}
	// Two spaces from one plan must not share mutable state.
	if pl.NewSpace() == rebuilt {
		t.Error("NewSpace returned a shared space")
	}
}

func TestCache(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	fp := plan.DomainFingerprint(v, o)
	c := plan.NewCache()
	m := plan.NewCacheMetrics(obs.NewRegistry())

	compiles := 0
	compile := func() (*plan.Plan, error) {
		compiles++
		return plan.Compile(v, o, q, fp)
	}
	p1, hit, err := c.GetOrCompile(q.String(), fp, m, compile)
	if err != nil || hit {
		t.Fatalf("first GetOrCompile: hit=%v err=%v", hit, err)
	}
	p2, hit, err := c.GetOrCompile(q.String(), fp, m, compile)
	if err != nil || !hit {
		t.Fatalf("second GetOrCompile: hit=%v err=%v", hit, err)
	}
	if p1 != p2 {
		t.Error("cache hit returned a different plan pointer")
	}
	if compiles != 1 {
		t.Errorf("compiled %d times, want 1", compiles)
	}
	if m.Hits() != 1 || m.Misses() != 1 {
		t.Errorf("metrics: hits=%v misses=%v, want 1/1", m.Hits(), m.Misses())
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}

	// A different domain fingerprint is a different cache entry.
	p3, hit, err := c.GetOrCompile(q.String(), "sha256:other", m, compile)
	if err != nil || hit {
		t.Fatalf("drifted-domain GetOrCompile: hit=%v err=%v", hit, err)
	}
	if p3 == p1 {
		t.Error("different domain reused the cached plan")
	}
	if got, ok := c.Get(q.String(), fp); !ok || got != p1 {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if plans := c.Plans(); len(plans) != 2 {
		t.Errorf("Plans() returned %d entries", len(plans))
	}

	// A nil *CacheMetrics is fine (metrics are optional everywhere).
	if _, _, err := c.GetOrCompile(q.String(), fp, nil, compile); err != nil {
		t.Fatal(err)
	}
	var nilM *plan.CacheMetrics
	if nilM.Hits() != 0 || nilM.Misses() != 0 {
		t.Error("nil CacheMetrics reads nonzero")
	}
}
