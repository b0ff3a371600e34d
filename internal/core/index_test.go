package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/fact"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// scanClassifier is the classifier as it was before the term index: every
// order question scans the anchor lists or the unclassified set with
// Space.Leq. It is kept as the oracle the indexed classifier must match
// operation for operation. Like the classifier, it names nodes by their
// Space ids.
type scanClassifier struct {
	sp           *assign.Space
	sig, insig   []uint32
	status       map[uint32]Status // tracked nodes only
	unclassified map[uint32]bool
	significant  []uint32 // onSignificant calls
}

func newScanClassifier(sp *assign.Space) *scanClassifier {
	return &scanClassifier{sp: sp, status: map[uint32]Status{}, unclassified: map[uint32]bool{}}
}

// leq is Space.Leq on node ids.
func (c *scanClassifier) leq(a, b uint32) bool { return c.sp.Leq(c.sp.Node(a), c.sp.Node(b)) }

func (c *scanClassifier) register(a uint32) Status {
	if st, ok := c.status[a]; ok {
		return st
	}
	st := Unclassified
	for _, s := range c.sig {
		if c.leq(a, s) {
			st = Significant
			break
		}
	}
	if st == Unclassified {
		for _, i := range c.insig {
			if c.leq(i, a) {
				st = Insignificant
				break
			}
		}
	}
	c.status[a] = st
	if st == Unclassified {
		c.unclassified[a] = true
	} else if st == Significant {
		c.significant = append(c.significant, a)
	}
	return st
}

func (c *scanClassifier) markSignificant(a uint32) {
	for _, s := range c.sig {
		if c.leq(a, s) {
			c.setStatus(a, Significant)
			return
		}
	}
	kept := c.sig[:0]
	for _, s := range c.sig {
		if !c.leq(s, a) {
			kept = append(kept, s)
		}
	}
	c.sig = append(kept, a)
	c.setStatus(a, Significant)
	for w := range c.unclassified {
		if c.leq(w, a) {
			c.status[w] = Significant
			delete(c.unclassified, w)
			c.significant = append(c.significant, w)
		}
	}
}

func (c *scanClassifier) markInsignificant(a uint32) {
	for _, i := range c.insig {
		if c.leq(i, a) {
			c.setStatus(a, Insignificant)
			return
		}
	}
	kept := c.insig[:0]
	for _, i := range c.insig {
		if !c.leq(a, i) {
			kept = append(kept, i)
		}
	}
	c.insig = append(kept, a)
	c.setStatus(a, Insignificant)
	for w := range c.unclassified {
		if c.leq(a, w) {
			c.status[w] = Insignificant
			delete(c.unclassified, w)
		}
	}
}

func (c *scanClassifier) setStatus(a uint32, st Status) {
	prev := c.status[a]
	c.status[a] = st
	delete(c.unclassified, a)
	if st == Significant && prev != Significant {
		c.significant = append(c.significant, a)
	}
}

// classifierDomain generates the space and node pool of one differential
// run. The seed picks the DAG shape — tree or multi-parent, one or two
// mined variables, every term or only leaves valid, multiplicities on or
// off — and the pool mixes real lattice nodes (a breadth-first successor
// walk from the floor) with random antichains, nodes with no values, and
// MORE-only nodes, which no term can index. Pool nodes are Space ids.
func classifierDomain(seed int64) (*assign.Space, []uint32, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := synth.DAGConfig{Width: 8 + rng.Intn(24), Depth: 2 + rng.Intn(3),
		ValidLeavesOnly: rng.Intn(2) == 0, Multiplicities: rng.Intn(3) != 0, Seed: seed}
	if rng.Intn(2) == 0 {
		cfg.ExtraParentProb = 0.3
	}
	if rng.Intn(2) == 0 {
		cfg.XWidth, cfg.XDepth = 2+rng.Intn(4), 1+rng.Intn(2)
	}
	s, err := synth.GenerateSpace(cfg)
	if err != nil {
		return nil, nil, err
	}
	sp := s.Sp
	var pool []uint32
	seen := map[uint32]bool{}
	add := func(a assign.Assignment) {
		if id := sp.ID(a); !seen[id] {
			seen[id] = true
			pool = append(pool, id)
		}
	}
	queue := sp.Minimal()
	for n := 0; n < len(queue) && len(pool) < 40; n++ {
		add(queue[n])
		queue = append(queue, sp.Successors(queue[n])...)
	}
	terms := [][]vocab.Term{s.Terms, s.XTerms}
	rel, _ := sp.Voc.Lookup("rel")
	randFact := func() fact.Fact {
		return fact.Fact{S: s.Terms[rng.Intn(len(s.Terms))], R: rel, O: s.Terms[rng.Intn(len(s.Terms))]}
	}
	for len(pool) < 160 {
		vals := make([][]vocab.Term, len(sp.Vars))
		var more fact.Set
		switch rng.Intn(10) {
		case 0: // no values at all
		case 1: // MORE facts only
			more = fact.Set{randFact(), randFact()}
		default:
			for i := range vals {
				for k := rng.Intn(4); k > 0; k-- {
					vals[i] = append(vals[i], terms[i][rng.Intn(len(terms[i]))])
				}
			}
			if rng.Intn(4) == 0 {
				more = fact.Set{randFact()}
			}
		}
		add(sp.NewAssignment(vals, more))
	}
	return sp, pool, nil
}

// classifierOp is one classifier operation on a pool node.
type classifierOp struct {
	kind byte // 0, 1 register; 2 mark significant; 3 mark insignificant
	node int
}

// decodeClassifierOps decodes fuzzer bytes into classifier operations, two
// bytes each: the low two bits of the first pick the operation (register
// twice as often as either mark), the second the pool node.
func decodeClassifierOps(data []byte, pool int) []classifierOp {
	ops := make([]classifierOp, 0, len(data)/2)
	for k := 0; k+1 < len(data); k += 2 {
		ops = append(ops, classifierOp{kind: data[k] & 3, node: int(data[k+1]) % pool})
	}
	return ops
}

// encodeClassifierOps is the inverse of decodeClassifierOps for pools of at
// most 256 nodes.
func encodeClassifierOps(ops []classifierOp) []byte {
	data := make([]byte, 0, 2*len(ops))
	for _, op := range ops {
		data = append(data, op.kind, byte(op.node))
	}
	return data
}

// randomClassifierOps draws 400 operations on pool: 80 registrations, so
// uncl passes indexMin, then all four operations mixed. An insignificant
// mark takes the most specific of three random nodes: a general one would
// absorb the rest, and the insignificant anchors would never pass indexMin.
func randomClassifierOps(seed int64, sp *assign.Space, pool []uint32) []classifierOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]classifierOp, 400)
	for k := range ops {
		ops[k] = classifierOp{kind: byte(rng.Intn(4)), node: rng.Intn(len(pool))}
		if k < 80 {
			ops[k].kind = 0
		}
		for j := 0; j < 2 && ops[k].kind == 3; j++ {
			if n := rng.Intn(len(pool)); sp.Node(pool[n]).Size() > sp.Node(pool[ops[k].node]).Size() {
				ops[k].node = n
			}
		}
	}
	return ops
}

// checkClassifierOps runs ops on the indexed classifier and on the scan
// oracle side by side. After every operation the tracked nodes, their
// statuses, the unclassified set, both anchor sets and the onSignificant
// calls must agree. It reports which sets were indexed by the end; none is
// on the first operation, so each indexed set switched from scan partway.
func checkClassifierOps(t *testing.T, sp *assign.Space, pool []uint32, ops []classifierOp) (indexed [3]bool) {
	t.Helper()
	c := newClassifier(sp)
	var significant []uint32
	c.onSignificant = func(id uint32) { significant = append(significant, id) }
	o := newScanClassifier(sp)
	sorted := func(ids []uint32) []uint32 {
		out := slices.Clone(ids)
		slices.Sort(out)
		return out
	}
	for step, op := range ops {
		a := pool[op.node]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (op %d on %s): %s", step, op.kind, sp.Format(sp.Node(a)), fmt.Sprintf(format, args...))
		}
		switch op.kind {
		case 0, 1:
			if got, want := c.register(a), o.register(a); got != want {
				fail("register = %v, scan %v", got, want)
			}
		case 2:
			c.markSignificant(a)
			o.markSignificant(a)
		case 3:
			c.markInsignificant(a)
			o.markInsignificant(a)
		}
		tracked := 0
		for id := range c.flags {
			if c.flags[id]&flagTracked == 0 {
				continue
			}
			tracked++
			if want, ok := o.status[uint32(id)]; !ok || c.status_[id] != want {
				fail("%s is %v, scan %v (tracked %v)", sp.Format(sp.Node(uint32(id))), c.status_[id], want, ok)
			}
		}
		if tracked != len(o.status) {
			fail("%d tracked nodes, scan %d", tracked, len(o.status))
		}
		var uncl []uint32
		for w := range o.unclassified {
			uncl = append(uncl, w)
		}
		slices.Sort(uncl)
		if got := sorted(c.uncl); !slices.Equal(got, uncl) {
			fail("%d unclassified, scan %d", len(got), len(uncl))
		}
		if got, want := sorted(c.sig), sorted(o.sig); !slices.Equal(got, want) {
			fail("%d significant anchors, scan %d", len(got), len(want))
		}
		if got, want := sorted(c.insig), sorted(o.insig); !slices.Equal(got, want) {
			fail("%d insignificant anchors, scan %d", len(got), len(want))
		}
		slices.Sort(significant)
		slices.Sort(o.significant)
		if !slices.Equal(significant, o.significant) {
			fail("onSignificant calls %d, scan %d", len(significant), len(o.significant))
		}
		if step == 0 && c.idx != nil {
			t.Fatalf("index built on the first operation")
		}
	}
	for set := range indexed {
		indexed[set] = c.indexed(set)
	}
	return indexed
}

// TestClassifierIndexMatchesScan is the differential test of the term
// index: on 60 generated domains, a random sequence of registrations and
// explicit (possibly contradictory) classifications leaves the indexed
// classifier and the scan oracle with equal statuses, unclassified sets
// and anchor sets after every operation, across the switch from scan to
// index partway through each run.
func TestClassifierIndexMatchesScan(t *testing.T) {
	var indexed [3]int
	for seed := int64(1); seed <= 60; seed++ {
		sp, pool, err := classifierDomain(seed)
		if err != nil {
			t.Fatal(err)
		}
		for set, on := range checkClassifierOps(t, sp, pool, randomClassifierOps(seed, sp, pool)) {
			if on {
				indexed[set]++
			}
		}
	}
	t.Logf("runs that indexed the unclassified, significant and insignificant sets: %v of 60", indexed)
	if indexed[setUncl] < 50 || indexed[setSig] < 10 || indexed[setInsig] < 10 {
		t.Fatalf("indexed runs per set %v of 60; the test needs every set's index exercised", indexed)
	}
}
