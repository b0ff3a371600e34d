// Package plan is the planner of the parse → plan → execute pipeline: it
// compiles an oassisql AST together with a frozen vocabulary/ontology into
// an immutable, serializable Plan IR, so that sessions, servers and
// experiment grids execute precompiled plans instead of re-analyzing the
// query. A Plan carries the resolved mining variables, the resolved
// SATISFYING meta-fact-set (the pattern join tree after WHERE evaluation),
// the valid base assignments and a label for the mining substrate, plus
// the fingerprint of the domain it was compiled against.
// Plans are content-addressed: Fingerprint is a SHA-256 over the
// canonical JSON serialization, streamed into the hash without being
// built, and Cache keys plans on (query text, domain fingerprint). How a
// run stops (the top-k bound, the early-stop rule) is a run option, not
// part of the plan.
package plan

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"

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
	// evaluation, deduplicated, in assign.NewSpace's canonical order
	// (ascending by little-endian key bytes).
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
	fp  string         // sha256 over the canonical JSON serialization
}

// newPlan finalizes a Plan: it streams the IR once into SHA-256 to derive
// the content address, and keeps the read-only lattice tables every
// session of this plan shares. The serialization itself is never built:
// MarshalJSON renders it on demand.
func newPlan(p *Plan, voc *vocab.Vocabulary, tab *assign.Tables) (*Plan, error) {
	p.voc = voc
	p.tab = tab
	h := sha256.New()
	if err := writeIR(h, p); err != nil {
		return nil, err
	}
	p.fp = "sha256:" + hex.EncodeToString(h.Sum(nil))
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
// The bytes are those json.MarshalIndent(ir, "", "  ") writes for the IR's
// JSON shape; the streaming encoder that writes them here also feeds them
// to SHA-256 when the plan is built, so their digest is the Fingerprint.
func (p *Plan) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := writeIR(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
