package core

import (
	"fmt"
	"math/rand"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/vocab"
)

// randomSetup builds a small random two-variable mining space and a crowd
// of members with random personal histories, plus everything needed to
// compute ground truth by brute force.
type randomSetup struct {
	voc     *vocab.Vocabulary
	sp      *assign.Space
	members []crowd.Member
	dbs     []*crowd.PersonalDB
	yTerms  []vocab.Term
	xTerms  []vocab.Term
	rel     vocab.Term
	theta   float64
	mult    bool
}

func newRandomSetup(rng *rand.Rand, mult bool) *randomSetup {
	v := vocab.New()
	rel := v.MustAddRelation("does")
	yRoot := v.MustAddElement("yroot")
	xRoot := v.MustAddElement("xroot")
	grow := func(root vocab.Term, prefix string, n int) []vocab.Term {
		terms := []vocab.Term{root}
		for i := 0; i < n; i++ {
			t := v.MustAddElement(fmt.Sprintf("%s%d", prefix, i))
			v.MustAddOrder(terms[rng.Intn(len(terms))], t)
			terms = append(terms, t)
		}
		return terms
	}
	yTerms := grow(yRoot, "y", 6+rng.Intn(4))
	xTerms := grow(xRoot, "x", 3+rng.Intn(3))
	if err := v.Freeze(); err != nil {
		panic(err)
	}

	m := oassisql.MultOne
	if mult {
		m = oassisql.MultPlus
	}
	q := &oassisql.Query{
		Select:  oassisql.SelectFactSets,
		Support: 0.5,
		Satisfying: []oassisql.Pattern{{
			S:     oassisql.Var("y"),
			SMult: m,
			R:     oassisql.TermAtom("does"),
			O:     oassisql.Var("x"),
			OMult: oassisql.MultOne,
		}},
	}
	var bindings []map[string]vocab.Term
	for _, y := range yTerms[1:] {
		for _, x := range xTerms[1:] {
			bindings = append(bindings, map[string]vocab.Term{"y": y, "x": x})
		}
	}
	anchors := map[string][]vocab.Term{"y": {yRoot}, "x": {xRoot}}
	sp, err := assign.NewSpace(v, q, bindings, anchors)
	if err != nil {
		panic(err)
	}

	s := &randomSetup{voc: v, sp: sp, yTerms: yTerms, xTerms: xTerms, rel: rel,
		theta: 0.34, mult: mult}
	nMembers := 2 + rng.Intn(3)
	for i := 0; i < nMembers; i++ {
		db := crowd.NewPersonalDB(v)
		txns := 3 + rng.Intn(4)
		for t := 0; t < txns; t++ {
			var tx fact.Set
			for f := 0; f < 1+rng.Intn(3); f++ {
				tx = append(tx, fact.Fact{
					S: yTerms[1+rng.Intn(len(yTerms)-1)],
					R: rel,
					O: xTerms[1+rng.Intn(len(xTerms)-1)],
				})
			}
			db.Add(tx.Canon())
		}
		s.dbs = append(s.dbs, db)
		s.members = append(s.members, &crowd.SimMember{
			Name: fmt.Sprintf("m%d", i), DB: db, Disc: crowd.Exact,
		})
	}
	return s
}

// meanSupport computes the exact crowd mean support of a fact-set.
func (s *randomSetup) meanSupport(fs fact.Set) float64 {
	sum := 0.0
	for _, db := range s.dbs {
		sum += db.Support(fs)
	}
	return sum / float64(len(s.dbs))
}

// significant tests an assignment against the ground truth.
func (s *randomSetup) significant(a assign.Assignment) bool {
	return s.meanSupport(s.sp.Instantiate(a)) >= s.theta-aggregate.Eps
}

// enumerate lists every assignment of 𝒜 with y-multiplicity ≤ maxMult,
// independently of the engine's lattice moves: all (ySet, x) combinations
// over the full domains, filtered by InA.
func (s *randomSetup) enumerate(maxMult int) []assign.Assignment {
	var out []assign.Assignment
	ys := s.yTerms
	xs := s.xTerms
	var ySets [][]vocab.Term
	for _, y := range ys {
		ySets = append(ySets, []vocab.Term{y})
	}
	if maxMult >= 2 {
		for i := range ys {
			for j := i + 1; j < len(ys); j++ {
				if !s.voc.Comparable(ys[i], ys[j]) {
					ySets = append(ySets, []vocab.Term{ys[i], ys[j]})
				}
			}
		}
	}
	for _, ySet := range ySets {
		for _, x := range xs {
			vals := [][]vocab.Term{ySet, {x}}
			a := s.sp.NewAssignment(vals, nil)
			if s.sp.InA(a) {
				out = append(out, a)
			}
		}
	}
	return out
}

// trueMSPs computes the maximal significant assignments by brute force over
// the enumerated lattice.
func (s *randomSetup) trueMSPs(maxMult int) []assign.Assignment {
	nodes := s.enumerate(maxMult)
	var sig []assign.Assignment
	for _, a := range nodes {
		if s.significant(a) {
			sig = append(sig, a)
		}
	}
	var out []assign.Assignment
	for i, a := range sig {
		maximal := true
		for j, b := range sig {
			if i != j && s.sp.Lt(a, b) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	return out
}

// TestEngineMatchesBruteForce cross-checks the engine's MSPs against an
// exhaustive ground-truth computation on many random crowds, for the
// multiplicity-free case where the enumeration is complete.
func TestEngineMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		s := newRandomSetup(rng, false)
		res := Run(Config{
			Space:   s.sp,
			Theta:   s.theta,
			Members: s.members,
			Agg:     aggregate.NewFixedSample(len(s.members)),
		})
		want := s.trueMSPs(1)
		wantKeys := map[string]bool{}
		for _, m := range want {
			wantKeys[m.Key()] = true
		}
		gotKeys := map[string]bool{}
		for _, m := range res.MSPs {
			gotKeys[m.Key()] = true
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Errorf("trial %d: true MSP missing from engine output", trial)
			}
		}
		for _, m := range res.MSPs {
			if !wantKeys[m.Key()] {
				t.Errorf("trial %d: engine reported non-MSP %s (significant=%v)",
					trial, s.sp.Format(m), s.significant(m))
			}
		}
	}
}

// TestEngineMatchesBruteForceWithMultiplicities does the same with the +
// multiplicity, comparing only MSPs of size ≤ 2 from both sides (the
// brute-force enumeration is bounded).
func TestEngineMatchesBruteForceWithMultiplicities(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 500))
		s := newRandomSetup(rng, true)
		res := Run(Config{
			Space:   s.sp,
			Theta:   s.theta,
			Members: s.members,
			Agg:     aggregate.NewFixedSample(len(s.members)),
		})
		want := s.trueMSPs(2)
		wantKeys := map[string]bool{}
		for _, m := range want {
			wantKeys[m.Key()] = true
		}
		gotSmall := map[string]bool{}
		maxGotSize := 0
		for _, m := range res.MSPs {
			if n := len(m.Vals[0]); n > maxGotSize {
				maxGotSize = n
			}
			if len(m.Vals[0]) <= 2 {
				gotSmall[m.Key()] = true
			}
		}
		// Every size-≤2 true MSP must be reported unless it is dominated by
		// a larger engine MSP (size ≥ 3), which the bounded enumeration
		// cannot see.
		for k := range wantKeys {
			if gotSmall[k] {
				continue
			}
			covered := false
			for _, m := range res.MSPs {
				if len(m.Vals[0]) > 2 {
					for _, w := range want {
						if w.Key() == k && s.sp.Leq(w, m) {
							covered = true
						}
					}
				}
			}
			if !covered {
				t.Errorf("trial %d: true ≤2-MSP neither reported nor dominated", trial)
			}
		}
		// Engine MSPs of size ≤ 2 must be true MSPs of the bounded lattice
		// or dominated... they must at least be significant and maximal
		// among size-≤2 significant nodes.
		for _, m := range res.MSPs {
			if !s.significant(m) {
				t.Errorf("trial %d: engine MSP not significant: %s", trial, s.sp.Format(m))
			}
		}
	}
}

// TestEngineClassifiesEverything checks the termination invariant: at the
// end of a run, every valid base assignment has a definite classification
// consistent with the ground truth significance.
func TestEngineClassifiesEverything(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 900))
		s := newRandomSetup(rng, false)
		e := runSession(Config{
			Space:   s.sp,
			Theta:   s.theta,
			Members: s.members,
			Agg:     aggregate.NewFixedSample(len(s.members)),
		}).eng
		for _, row := range s.sp.ValidBase {
			a := s.sp.Singleton(row...)
			st := e.cls.status(s.sp.ID(a))
			if st == Unclassified {
				t.Fatalf("trial %d: valid assignment left unclassified: %s",
					trial, s.sp.Format(a))
			}
			if want := s.significant(a); (st == Significant) != want {
				t.Errorf("trial %d: %s classified %v, truth %v",
					trial, s.sp.Format(a), st, want)
			}
		}
	}
}
