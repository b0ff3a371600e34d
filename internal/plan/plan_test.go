package plan_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/fact"
	"oassis/internal/itemset"
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
// first, key ascending on ties — where it survives inside plan: as
// max-prune's tie-break between equally-scored candidates, which keeps
// the selector a total order.
func TestPolicyOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		cands []plan.Candidate
		want  int
	}{
		{"smaller size wins", []plan.Candidate{
			{Key: "a", Size: 2, Down: 2, Up: 2},
			{Key: "z", Size: 1, Down: 2, Up: 2},
		}, 1},
		{"least key breaks a size tie", []plan.Candidate{
			{Key: "a", Size: 2, Down: 2, Up: 2},
			{Key: "b", Size: 2, Down: 2, Up: 2},
		}, 0},
		{"score outranks the order", []plan.Candidate{
			{Key: "a", Size: 1, Down: 1, Up: 1},
			{Key: "b", Size: 2, Down: 2, Up: 2},
		}, 1},
	} {
		var sel plan.MaxPrune
		if got := sel.Select(c.cands, 0.2); got != c.want {
			t.Errorf("%s: Select = %d, want %d", c.name, got, c.want)
		}
	}
}

// randomDB builds a deterministic random transaction database.
func randomDB(seed int64, transactions, items int) []itemset.Itemset {
	rng := rand.New(rand.NewSource(seed))
	db := make([]itemset.Itemset, transactions)
	for t := range db {
		n := 1 + rng.Intn(4)
		var tx itemset.Itemset
		for j := 0; j < n; j++ {
			tx = append(tx, rng.Intn(items))
		}
		db[t] = tx
	}
	return db
}

// TestSubstratePairity: the assoc substrate (the SIGMOD'13 black box run
// noiselessly) must return bit-identical maximal frequent itemsets to the
// classic Apriori substrate, on arbitrary databases and thresholds.
func TestSubstrateParity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db := randomDB(seed, 40, 8)
		for _, theta := range []float64{0.1, 0.2, 1.0 / 3.0, 0.5} {
			want := plan.ItemsetSubstrate{}.MineMaximal(db, theta)
			for _, users := range []int{0, 1, 5} {
				got := plan.AssocSubstrate{Users: users}.MineMaximal(db, theta)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d theta %g users %d: assoc %v != itemset %v",
						seed, theta, users, got, want)
				}
			}
		}
	}
}

func TestSubstrateByName(t *testing.T) {
	for name, want := range map[string]string{
		plan.SubstrateItemset: plan.SubstrateItemset,
		plan.SubstrateAssoc:   plan.SubstrateAssoc,
		"":                    plan.SubstrateAssoc,
	} {
		s, err := plan.SubstrateByName(name)
		if err != nil || s.Name() != want {
			t.Errorf("SubstrateByName(%q) = %v, %v; want %s", name, s, err, want)
		}
	}
	if _, err := plan.SubstrateByName("nope"); err == nil {
		t.Error("SubstrateByName accepted an unknown substrate")
	}
}

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
	if pl.PolicyName != plan.PolicyPaperOrder {
		t.Errorf("policy = %q", pl.PolicyName)
	}
	// Empty WHERE is the §4.1 itemset-capture form: classic substrate.
	if pl.SubstrateName != plan.SubstrateItemset {
		t.Errorf("substrate = %q, want %q", pl.SubstrateName, plan.SubstrateItemset)
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
