package synth

import (
	"fmt"
	"math/rand"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/vocab"
)

// MSPDist selects the placement of planted MSPs in the DAG (§6.4).
type MSPDist int

// MSP distributions studied in the paper.
const (
	Uniform MSPDist = iota // uniform random, pairwise incomparable
	Nearby                 // biased towards MSPs within distance ≤ 4
	Far                    // biased towards MSPs at distance ≥ 6
)

func (d MSPDist) String() string {
	switch d {
	case Nearby:
		return "nearby"
	case Far:
		return "far"
	default:
		return "uniform"
	}
}

// MSPConfig controls MSP planting.
type MSPConfig struct {
	// Count is the number of MSPs to plant (the paper uses 1–10% of the
	// DAG nodes).
	Count int
	Dist  MSPDist
	// ValidOnly plants MSPs only among valid assignments.
	ValidOnly bool
	// MultCount of the planted MSPs get multiplicities (value sets of size
	// 2..MaxMultSize); requires a space with multiplicities enabled.
	MultCount   int
	MaxMultSize int
	Seed        int64
}

// PlantMSPs selects a pairwise-incomparable set of assignments to act as
// the true maximal significant patterns. The significance oracle derived
// from them (Oracle) then answers crowd questions accordingly.
func (s *Space) PlantMSPs(cfg MSPConfig) ([]assign.Assignment, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.MaxMultSize < 2 {
		cfg.MaxMultSize = 2
	}
	sp := s.Sp

	// candidate draws one random multiplicity-1 assignment.
	candidate := func() assign.Assignment {
		if cfg.ValidOnly || len(sp.Vars) > 1 {
			row := sp.ValidBase[rng.Intn(len(sp.ValidBase))]
			return sp.Singleton(row...)
		}
		return sp.Singleton(s.Terms[rng.Intn(len(s.Terms))])
	}

	var msps []assign.Assignment
	incomparableWithAll := func(a assign.Assignment) bool {
		for _, m := range msps {
			if sp.Leq(a, m) || sp.Leq(m, a) {
				return false
			}
		}
		return true
	}
	distanceOK := func(a assign.Assignment) bool {
		if len(msps) == 0 {
			return true
		}
		switch cfg.Dist {
		case Nearby:
			for _, m := range msps {
				if d := s.AssignmentDistance(a, m); d >= 0 && d <= 4 {
					return true
				}
			}
			return false
		case Far:
			for _, m := range msps {
				if d := s.AssignmentDistance(a, m); d >= 0 && d < 6 {
					return false
				}
			}
			return true
		default:
			return true
		}
	}

	singles := cfg.Count - cfg.MultCount
	attempts := 0
	for len(msps) < singles && attempts < 200*cfg.Count+1000 {
		attempts++
		a := candidate()
		if !incomparableWithAll(a) || !distanceOK(a) {
			continue
		}
		msps = append(msps, a)
	}
	// Multiplicity MSPs: grow a candidate's first variable to a set of
	// 2..MaxMultSize incomparable values.
	for planted := 0; planted < cfg.MultCount && attempts < 400*cfg.Count+2000; {
		attempts++
		base := candidate()
		size := 2 + rng.Intn(cfg.MaxMultSize-1)
		set := append([]vocab.Term(nil), base.Vals[0]...)
		for tries := 0; len(set) < size && tries < 50; tries++ {
			t := candidate().Vals[0][0]
			ok := true
			for _, u := range set {
				if s.Voc.Comparable(t, u) {
					ok = false
					break
				}
			}
			if ok {
				set = append(set, t)
			}
		}
		if len(set) < 2 {
			continue
		}
		vals := make([][]vocab.Term, len(sp.Vars))
		vals[0] = set
		for i := 1; i < len(sp.Vars); i++ {
			vals[i] = base.Vals[i]
		}
		a := sp.NewAssignment(vals, nil)
		if !sp.InA(a) || !incomparableWithAll(a) {
			continue
		}
		msps = append(msps, a)
		planted++
	}
	if len(msps) == 0 {
		return nil, fmt.Errorf("synth: could not plant any MSP (constraints too tight)")
	}
	return msps, nil
}

// Oracle is the simulated single user of §6.4: its (virtual) history makes
// an assignment significant exactly when it precedes a planted MSP. Its
// specialization answers "provide the algorithm a significant successor of
// the current assignment", and its pruning clicks mark terms that appear in
// no planted MSP, with the configured probabilities.
type Oracle struct {
	Name  string
	Space *assign.Space
	Voc   *vocab.Vocabulary
	MSPs  []assign.Assignment

	SpecializeProb float64
	PruneProb      float64
	Rng            *rand.Rand

	insts []fact.Set
}

// NewOracle builds an oracle member over planted MSPs.
func NewOracle(name string, s *Space, msps []assign.Assignment) *Oracle {
	o := &Oracle{Name: name, Space: s.Sp, Voc: s.Voc, MSPs: msps}
	o.buildInsts()
	return o
}

func (o *Oracle) buildInsts() {
	o.insts = make([]fact.Set, len(o.MSPs))
	for i, m := range o.MSPs {
		o.insts[i] = o.Space.Instantiate(m)
	}
}

// ID implements crowd.Member.
func (o *Oracle) ID() string { return o.Name }

// significant reports whether the asked fact-set is implied by a planted
// MSP's fact-set (equivalently, the asked assignment precedes the MSP).
func (o *Oracle) significant(fs fact.Set) bool {
	for _, inst := range o.insts {
		if fact.SetLeq(o.Voc, fs, inst) {
			return true
		}
	}
	return false
}

// Concrete implements crowd.Member.
func (o *Oracle) Concrete(fs fact.Set) float64 {
	if o.significant(fs) {
		return 1
	}
	return 0
}

func (o *Oracle) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	if o.Rng == nil {
		return false
	}
	return o.Rng.Float64() < p
}

// ChooseSpecialization implements crowd.Member.
func (o *Oracle) ChooseSpecialization(candidates []fact.Set) crowd.SpecializeResponse {
	if !o.chance(o.SpecializeProb) {
		return crowd.DeclineSpecialization()
	}
	for i, c := range candidates {
		if o.significant(c) {
			return crowd.Choose(i, 1)
		}
	}
	return crowd.NoneOfThese()
}

// Irrelevant implements crowd.Member: a term is irrelevant when no planted
// MSP instantiation mentions it or a more specific term.
func (o *Oracle) Irrelevant(terms []vocab.Term) (vocab.Term, bool) {
	if !o.chance(o.PruneProb) {
		return vocab.None, false
	}
	for _, t := range terms {
		relevant := false
		for _, inst := range o.insts {
			for _, f := range inst {
				if o.Voc.Leq(t, f.S) || o.Voc.Leq(t, f.R) || o.Voc.Leq(t, f.O) {
					relevant = true
					break
				}
			}
			if relevant {
				break
			}
		}
		if !relevant {
			return t, true
		}
	}
	return vocab.None, false
}
