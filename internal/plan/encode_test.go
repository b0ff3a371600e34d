package plan_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/plan"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// planJSON, varJSON and satJSON are the JSON shape of the plan IR as it
// was rendered through encoding/json, kept with marshalOracle as the
// oracle of the streaming encoder behind MarshalJSON and Fingerprint.
type planJSON struct {
	Query     string     `json:"query"`
	Support   float64    `json:"support"`
	All       bool       `json:"select_all"`
	More      bool       `json:"more"`
	Domain    string     `json:"domain"`
	Policy    string     `json:"policy"`
	Substrate string     `json:"substrate"`
	Stop      string     `json:"stop"`
	Vars      []varJSON  `json:"vars"`
	Sat       []satJSON  `json:"sat"`
	ValidBase [][]string `json:"valid_base"`
}

type varJSON struct {
	Name    string   `json:"name"`
	Mult    string   `json:"mult"`
	Kind    string   `json:"kind"`
	Anchors []string `json:"anchors,omitempty"`
}

type satJSON struct {
	S string `json:"s"`
	R string `json:"r"`
	O string `json:"o"`
}

// marshalOracle renders p's IR with every valid row resolved to names and
// json.MarshalIndent over the result.
func marshalOracle(p *plan.Plan) ([]byte, error) {
	voc := p.Vocabulary()
	compName := func(c assign.Comp) string {
		if c.Var >= 0 {
			return "$" + p.Vars[c.Var].Name
		}
		if c.Term == vocab.Any {
			return "[]"
		}
		return voc.Name(c.Term)
	}
	j := planJSON{
		Query:     p.QueryText,
		Support:   p.Support,
		All:       p.All,
		More:      p.More,
		Domain:    p.DomainFP,
		Policy:    "paper-order",
		Substrate: p.SubstrateName,
		Stop:      "threshold",
		Vars:      []varJSON{},
		Sat:       []satJSON{},
		ValidBase: [][]string{},
	}
	for _, v := range p.Vars {
		mult := v.Mult.Marker()
		if mult == "" {
			mult = "1"
		}
		j.Vars = append(j.Vars, varJSON{
			Name:    v.Name,
			Mult:    mult,
			Kind:    v.Kind.String(),
			Anchors: voc.Names(v.Anchors),
		})
	}
	for _, m := range p.Sat {
		j.Sat = append(j.Sat, satJSON{S: compName(m.S), R: compName(m.R), O: compName(m.O)})
	}
	for _, row := range p.ValidBase {
		j.ValidBase = append(j.ValidBase, voc.Names(row))
	}
	return json.MarshalIndent(j, "", "  ")
}

// checkEncoding compares MarshalJSON with the MarshalIndent oracle byte
// for byte; both must fail, or neither.
func checkEncoding(t *testing.T, what string, pl *plan.Plan) {
	t.Helper()
	got, err := pl.MarshalJSON()
	want, werr := marshalOracle(pl)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: MarshalJSON error %v, oracle error %v", what, err, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON differs from the MarshalIndent oracle:\n%s\n--- oracle\n%s", what, got, want)
	}
}

// TestPlanEncodingMatchesMarshalIndent: the streaming encoder writes the
// bytes json.MarshalIndent writes for the IR, on the travel domain (whose
// term ids pass 255), the Figure 2 and Figure 3 queries over Figure 1, the
// itemset-capture query, a generated lattice, a plan over names that need
// escaping, and supports in both of encoding/json's float forms.
func TestPlanEncodingMatchesMarshalIndent(t *testing.T) {
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	travel, err := d.Plan(0.2)
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, "travel", travel)

	s := ontology.NewSample()
	fp := plan.DomainFingerprint(s.Voc, s.Onto)
	for name, src := range map[string]string{
		"figure 2": `SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity .
  $z instanceOf Restaurant.
  $z nearBy $x
SATISFYING
  $y+ doAt $x .
  [] eatAt $z
WITH SUPPORT = 0.4`,
		"figure 3": `SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4`,
	} {
		pl, err := plan.Compile(s.Voc, s.Onto, oassisql.MustParse(src), fp)
		if err != nil {
			t.Fatal(err)
		}
		checkEncoding(t, name, pl)
	}

	v, o, q := captureDomain(t, 6)
	capture, err := plan.Compile(v, o, q, plan.DomainFingerprint(v, o))
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, "capture", capture)

	g, err := synth.GenerateSpace(synth.DAGConfig{Width: 50, Depth: 4, XWidth: 5, XDepth: 2,
		Multiplicities: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, support := range []float64{0.5, 0, 1e-7, 3e21, -2.5e-9, 123456.789} {
		pl, err := plan.FromSpace("synth:lattice <&> \u2028", support, true, "", g.Sp)
		if err != nil {
			t.Fatal(err)
		}
		checkEncoding(t, "generated lattice", pl)
	}
	checkEncoding(t, "odd names", oddPlan(t, "a<b>&c\u2028\u2029", "\xff\x00\"\\\b\f\n\r\t\x7f", "vé", true))
}

// oddPlan compiles `$varName+ rel []` over a two-term vocabulary named
// root and leaf (leaf below root), with both terms valid and, if anchored,
// $varName anchored at root. It returns nil if the names are unusable.
func oddPlan(t testing.TB, root, leaf, varName string, anchored bool) *plan.Plan {
	t.Helper()
	v := vocab.New()
	r, err := v.AddElement(root)
	if err != nil {
		return nil
	}
	l, err := v.AddElement(leaf)
	if err != nil {
		return nil
	}
	if _, err := v.AddRelation("rel"); err != nil {
		return nil
	}
	if err := v.AddOrder(r, l); err != nil {
		return nil
	}
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	q := &oassisql.Query{
		Select:  oassisql.SelectFactSets,
		Support: 0.5,
		Satisfying: []oassisql.Pattern{{
			S: oassisql.Var(varName), SMult: oassisql.MultPlus,
			R: oassisql.TermAtom("rel"),
			O: oassisql.Atom{Kind: oassisql.AtomAny}, OMult: oassisql.MultOne,
		}},
	}
	var anchors map[string][]vocab.Term
	if anchored {
		anchors = map[string][]vocab.Term{varName: {r}}
	}
	bindings := []map[string]vocab.Term{{varName: l}, {varName: r}}
	sp, err := assign.NewSpace(v, q, bindings, anchors)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.FromSpace(root+"|"+leaf, 0.5, false, leaf, sp)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// FuzzPlanEncoding fuzzes term names, the mining variable's name and
// anchor, the query text and the support, and compares the streaming
// encoder with the MarshalIndent oracle byte for byte. A support with no
// JSON form (NaN, +Inf, -Inf) must fail on both sides.
func FuzzPlanEncoding(f *testing.F) {
	f.Add("Attraction", "Central Park", "x", "SELECT FACT-SETS SATISFYING $x+ rel []", 0.4, true)
	f.Add("a<b>&c", "x\u2028y\u2029", "v", "q <script>&amp;", 1e-7, false)
	f.Add("\xff\xfe", "\x00\x01\"\\\b\f\n\r\t", "", "", 1e21, true)
	f.Add("ünï", "水 ✓", "é", "\x7f", math.Copysign(0, -1), false)
	f.Add("root", "leaf", "y", "nan", math.NaN(), true)
	f.Fuzz(func(t *testing.T, root, leaf, varName, query string, support float64, anchored bool) {
		pl := oddPlan(t, root, leaf, varName, anchored)
		if pl == nil {
			t.Skip("names the vocabulary refuses")
		}
		pl.QueryText = query
		pl.Support = support
		checkEncoding(t, "fuzzed plan", pl)
	})
}
