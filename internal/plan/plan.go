// Package plan is the planner of the parse → plan → execute pipeline: it
// compiles an oassisql AST together with a frozen vocabulary/ontology into
// an immutable, serializable Plan IR, so that sessions, servers and
// experiment grids execute precompiled plans instead of re-analyzing the
// query. A Plan carries the resolved mining variables, the resolved
// SATISFYING meta-fact-set (the pattern join tree after WHERE evaluation),
// the valid base assignments and a label for the mining substrate, plus
// the fingerprint of the domain it was compiled against.
// Plans are content-addressed: Fingerprint is a SHA-256 over the
// canonical JSON serialization, and Cache keys plans on (query text,
// domain fingerprint). How a run stops (the top-k bound, the early-stop
// rule) is a run option, not part of the plan.
package plan

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"oassis/internal/assign"
	"oassis/internal/vocab"
)

// Plan is the immutable compiled form of one query over one domain.
// All fields are read-only after construction; concurrent sessions may
// share one Plan. Execution state (the assignment lattice, memo tables)
// lives in the per-session assign.Space built by NewSpace.
type Plan struct {
	// QueryText is the canonical concrete syntax of the compiled query
	// (oassisql.Query.String()), the first half of the cache key.
	QueryText string
	// Support is the significance threshold of the WITH SUPPORT clause.
	Support float64
	// All mirrors SELECT ... ALL: report all significant patterns, not
	// only the maximal ones.
	All bool
	// More records whether the SATISFYING clause requested MORE facts.
	More bool
	// Vars are the resolved mining variables in SATISFYING-occurrence
	// order, with multiplicities, kinds and generalization anchors.
	Vars []assign.VarSpec
	// Sat is the resolved SATISFYING meta-fact-set.
	Sat []assign.Meta
	// ValidBase holds the valid multiplicity-1 assignments from WHERE
	// evaluation, in canonical (sorted key) order.
	ValidBase [][]vocab.Term
	// SubstrateName labels the mining black box the query corresponds
	// to (SubstrateItemset or SubstrateAssoc). It is recorded in the IR
	// and the fingerprint only; execution does not depend on it.
	SubstrateName string
	// DomainFP is the fingerprint of the domain (vocabulary + ontology)
	// the plan was compiled against, the second half of the cache key.
	DomainFP string

	voc *vocab.Vocabulary
	tab *assign.Tables // frozen lattice tables, shared by every session
	js  []byte         // canonical JSON serialization
	fp  string         // sha256 over js
}

// newPlan finalizes a Plan: it serializes the IR once, derives the content
// address from the serialization, and keeps the read-only lattice tables
// every session of this plan shares.
func newPlan(p *Plan, voc *vocab.Vocabulary, tab *assign.Tables) (*Plan, error) {
	p.voc = voc
	p.tab = tab
	js, err := marshal(p)
	if err != nil {
		return nil, err
	}
	p.js = js
	p.fp = fmt.Sprintf("sha256:%x", sha256.Sum256(js))
	return p, nil
}

// Vocabulary returns the frozen vocabulary the plan resolves terms in.
func (p *Plan) Vocabulary() *vocab.Vocabulary { return p.voc }

// Fingerprint returns the plan's content address: "sha256:" followed by
// the hex digest of the canonical JSON serialization. Equal fingerprints
// mean equal plans (same query over the same domain).
func (p *Plan) Fingerprint() string { return p.fp }

// MarshalJSON returns the canonical serialization of the IR, with all
// terms resolved to their vocabulary names so the output is reviewable
// (golden files, the server's /plans route) without the interning table.
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := make([]byte, len(p.js))
	copy(out, p.js)
	return out, nil
}

// NewSpace builds a fresh per-session assign.Space from the compiled
// parts. Nothing plan-invariant is copied: the immutable slices and the
// precomputed lattice tables — with the valid-row key set and the Minimal
// seeds — are shared with the plan (and probed lock-free by concurrent
// sessions); only the mutable node table, arenas and scratch are new, so
// the Space is private to its session and its cost does not grow with the
// plan's valid rows. The canonical ValidBase order is the plan's, which makes
// planned execution bit-identical to compiling the query from scratch.
func (p *Plan) NewSpace() *assign.Space {
	return assign.FromShared(p.voc, p.Vars, p.Sat, p.More, p.ValidBase, p.tab)
}

// planJSON is the serialized shape of the IR. Field order is fixed and
// encoding/json is deterministic over it, so the serialization doubles as
// the input of the content address. Policy is always "paper-order", the
// engine's one question order, and Stop is always "threshold", the
// paper's ask-until-settled rule (an early stop is a run option): both
// stay in the IR only so fingerprints, and with them the plan bindings
// of existing stores, do not move.
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

// compName renders one meta-fact component with terms resolved to names.
func compName(p *Plan, c assign.Comp) string {
	if c.Var >= 0 {
		return "$" + p.Vars[c.Var].Name
	}
	if c.Term == vocab.Any {
		return "[]"
	}
	return p.voc.Name(c.Term)
}

func marshal(p *Plan) ([]byte, error) {
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
			Anchors: p.voc.Names(v.Anchors),
		})
	}
	for _, m := range p.Sat {
		j.Sat = append(j.Sat, satJSON{
			S: compName(p, m.S),
			R: compName(p, m.R),
			O: compName(p, m.O),
		})
	}
	for _, row := range p.ValidBase {
		j.ValidBase = append(j.ValidBase, p.voc.Names(row))
	}
	return json.MarshalIndent(j, "", "  ")
}
