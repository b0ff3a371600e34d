package plan

import (
	"crypto/sha256"
	"fmt"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/rdfio"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// ErrNotFrozen is returned when compiling against an unfrozen vocabulary:
// plans are immutable, so their domain must be too.
var ErrNotFrozen = fmt.Errorf("plan: vocabulary must be frozen before compiling")

// DomainFingerprint computes the content address of a frozen domain:
// "sha256:" over a canonical dump of the vocabulary (every term in
// interning order with its name, kind and children) followed by the
// deterministic Turtle serialization of the ontology. Two domains with
// the same fingerprint resolve every plan identically.
func DomainFingerprint(voc *vocab.Vocabulary, onto *ontology.Ontology) string {
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
			// rdfio.Write over an in-memory ontology only fails if the
			// writer fails, and sha256.Hash never does; keep the
			// signature error-free and poison the digest if it ever does.
			fmt.Fprintf(h, "write-error:%v", err)
		}
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// ShardIndex maps a plan fingerprint onto one of n shards (FNV-1a over
// the fingerprint text, mod n). It is the serving tier's routing
// function: because the fingerprint is a content address, every session
// of the same compiled plan lands on the same shard — deterministically,
// across restarts — and shares the plan's read-only tables there. n < 1
// returns 0.
func ShardIndex(fingerprint string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(fingerprint); i++ {
		h ^= uint64(fingerprint[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Compile analyzes query q over the frozen domain (voc, onto): it
// evaluates the WHERE clause, resolves the SATISFYING meta-fact-set and
// the valid base assignments, and labels the mining substrate. domainFP
// is the precomputed DomainFingerprint of (voc, onto); the caller usually
// holds it in a core.Domain so it is hashed once per domain, not once per
// compile.
func Compile(voc *vocab.Vocabulary, onto *ontology.Ontology, q *oassisql.Query,
	domainFP string) (*Plan, error) {

	if !voc.Frozen() {
		return nil, ErrNotFrozen
	}
	bindings, err := sparql.Evaluate(onto, q.Where)
	if err != nil {
		return nil, err
	}
	maps := make([]map[string]vocab.Term, len(bindings))
	for i, b := range bindings {
		maps[i] = b
	}
	sp, err := assign.NewSpace(voc, q, maps, sparql.Anchors(voc, q.Where))
	if err != nil {
		return nil, err
	}
	return newPlan(&Plan{
		QueryText:     q.String(),
		Support:       q.Support,
		All:           q.All,
		More:          q.More,
		Vars:          sp.Vars,
		Sat:           sp.Sat,
		ValidBase:     sp.ValidBase,
		SubstrateName: chooseSubstrate(q),
		DomainFP:      domainFP,
	}, voc, sp.Tables())
}

// Substrate labels a plan records as its SubstrateName.
const (
	SubstrateItemset = "itemset"
	SubstrateAssoc   = "assoc"
)

// chooseSubstrate labels the mining black box the query corresponds to.
// The pure itemset-capture form of §4.1 — an empty WHERE clause, so the
// query is frequent-pattern mining over the whole vocabulary — is classic
// itemset mining; everything else is crowd mining in the SIGMOD'13
// association-rule sense. The label is part of the IR and its fingerprint;
// nothing dispatches on it.
func chooseSubstrate(q *oassisql.Query) string {
	if len(q.Where) == 0 {
		return SubstrateItemset
	}
	return SubstrateAssoc
}

// FromSpace wraps an already-built assignment space as a Plan, for
// callers (the synthetic-domain generators, programmatic experiments)
// that construct spaces from explicit bindings rather than a WHERE
// clause. The space's parts are captured as-is; support is the
// significance threshold the plan will run with.
func FromSpace(queryText string, support float64, all bool, domainFP string,
	sp *assign.Space) (*Plan, error) {

	return newPlan(&Plan{
		QueryText:     queryText,
		Support:       support,
		All:           all,
		More:          sp.More,
		Vars:          sp.Vars,
		Sat:           sp.Sat,
		ValidBase:     sp.ValidBase,
		SubstrateName: SubstrateAssoc,
		DomainFP:      domainFP,
	}, sp.Voc, sp.Tables())
}
