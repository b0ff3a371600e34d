package synth

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/vocab"
)

func TestGenerateSpaceShape(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 50, Depth: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() < 50 {
		t.Errorf("NodeCount = %d, want ≥ width", s.NodeCount())
	}
	// Depth: some term must sit 4 levels below the root.
	maxDepth := 0
	for _, term := range s.Terms {
		if d := s.Voc.Depth(term); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 4 {
		t.Errorf("max depth = %d, want 4", maxDepth)
	}
	// All terms are anchored under the root.
	for _, term := range s.Terms {
		if !s.Voc.Leq(s.Root, term) {
			t.Fatalf("term %s not under root", s.Voc.Name(term))
		}
	}
	if _, err := GenerateSpace(DAGConfig{Width: 0, Depth: 3}); err == nil {
		t.Error("zero width accepted")
	}
}

func TestGenerateSpaceDeterministic(t *testing.T) {
	a, err := GenerateSpace(DAGConfig{Width: 40, Depth: 5, Seed: 9, ExtraParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSpace(DAGConfig{Width: 40, Depth: 5, Seed: 9, ExtraParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Voc.Len() != b.Voc.Len() || a.NodeCount() != b.NodeCount() {
		t.Error("generation not deterministic")
	}
}

func TestValidLeavesOnly(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 30, Depth: 4, ValidLeavesOnly: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Valid assignments are fewer than all terms.
	if len(s.Sp.ValidBase) >= len(s.Terms) {
		t.Errorf("valid %d ≥ terms %d", len(s.Sp.ValidBase), len(s.Terms))
	}
	// The DAG spans the ancestor closure of the leaves: more nodes than
	// valid assignments, at most the whole tree plus the root.
	if s.NodeCount() <= len(s.Sp.ValidBase) || s.NodeCount() > len(s.Terms)+1 {
		t.Errorf("NodeCount = %d, valid = %d, terms = %d",
			s.NodeCount(), len(s.Sp.ValidBase), len(s.Terms))
	}
}

func TestPlantMSPsIncomparable(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 100, Depth: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []MSPDist{Uniform, Nearby, Far} {
		msps, err := s.PlantMSPs(MSPConfig{Count: 8, Dist: dist, Seed: 4})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if len(msps) == 0 {
			t.Fatalf("%v: no MSPs", dist)
		}
		for i := range msps {
			for j := i + 1; j < len(msps); j++ {
				if s.Sp.Leq(msps[i], msps[j]) || s.Sp.Leq(msps[j], msps[i]) {
					t.Errorf("%v: planted MSPs %d and %d comparable", dist, i, j)
				}
			}
		}
	}
}

func TestPlantMSPsWithMultiplicities(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 80, Depth: 5, Multiplicities: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	msps, err := s.PlantMSPs(MSPConfig{Count: 6, MultCount: 2, MaxMultSize: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	multFound := 0
	for _, m := range msps {
		if len(m.Vals[0]) > 1 {
			multFound++
		}
	}
	if multFound == 0 {
		t.Error("no multiplicity MSPs planted")
	}
}

func TestOracleAnswers(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 60, Depth: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	msps, err := s.PlantMSPs(MSPConfig{Count: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle("oracle", s, msps)
	// The MSP itself and its generalizations answer 1.
	inst := s.Sp.Instantiate(msps[0])
	if o.Concrete(inst) != 1 {
		t.Error("MSP instantiation not significant")
	}
	top := s.Sp.Instantiate(s.Sp.Singleton(s.Root))
	if o.Concrete(top) != 1 {
		t.Error("root generalization not significant")
	}
	// A strict successor of an MSP answers 0 (MSP is maximal).
	for _, succ := range s.Sp.Successors(msps[0]) {
		if o.Concrete(s.Sp.Instantiate(succ)) != 0 {
			t.Errorf("successor of MSP answered significant: %s", s.Sp.Format(succ))
		}
	}
}

// TestVerticalRecoversPlantedMSPs: with one noiseless oracle member, the
// vertical algorithm recovers exactly the planted MSPs on every cell of a
// sweep over seeds 1–20, one and two mined variables, trees and DAGs
// (ExtraParentProb 0 and 0.3), and multiplicities off and on.
func TestVerticalRecoversPlantedMSPs(t *testing.T) {
	keys := func(as []assign.Assignment) []string {
		out := make([]string, len(as))
		for k, a := range as {
			out[k] = a.Key()
		}
		slices.Sort(out)
		return out
	}
	cells := 0
	for seed := int64(1); seed <= 20; seed++ {
		for _, twoVars := range []bool{false, true} {
			for _, extra := range []float64{0, 0.3} {
				for _, mult := range []bool{false, true} {
					dag := DAGConfig{Width: 60, Depth: 4, ExtraParentProb: extra, Multiplicities: mult, Seed: seed}
					if twoVars {
						dag.XWidth, dag.XDepth = 6, 2
					}
					plant := MSPConfig{Count: 4, ValidOnly: true, Seed: seed + 1000}
					if mult {
						plant.MultCount, plant.MaxMultSize = 2, 3
					}
					name := fmt.Sprintf("%+v %+v", dag, plant)
					s, err := GenerateSpace(dag)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					msps, err := s.PlantMSPs(plant)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res := core.Run(core.Config{
						Space:   s.Sp,
						Theta:   0.5,
						Members: []crowd.Member{NewOracle("oracle", s, msps)},
					})
					if got, want := keys(res.MSPs), keys(msps); !slices.Equal(got, want) {
						t.Errorf("%s: recovered %d MSPs, planted %d, and the sets differ", name, len(got), len(want))
					}
					cells++
				}
			}
		}
	}
	if cells != 160 {
		t.Fatalf("swept %d cells, want 160", cells)
	}
}

func TestVerticalRecoversMultiplicityMSPs(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 60, Depth: 4, Multiplicities: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	msps, err := s.PlantMSPs(MSPConfig{Count: 4, MultCount: 2, MaxMultSize: 3, ValidOnly: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle("oracle", s, msps)
	res := core.Run(core.Config{
		Space:   s.Sp,
		Theta:   0.5,
		Members: []crowd.Member{o},
	})
	want := map[string]bool{}
	for _, m := range msps {
		want[m.Key()] = true
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("unexpected MSP %s", s.Sp.Format(m))
		}
		delete(want, m.Key())
	}
	for k := range want {
		t.Errorf("planted MSP not recovered: %s", k)
	}
}

func TestOracleSpecializationAndPruning(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 60, Depth: 4, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	msps, err := s.PlantMSPs(MSPConfig{Count: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle("o", s, msps)
	o.SpecializeProb = 1
	o.PruneProb = 1
	o.Rng = rand.New(rand.NewSource(17))

	top := s.Sp.Singleton(s.Root)
	succs := s.Sp.Successors(top)
	sets := make([]fact.Set, len(succs))
	for i, su := range succs {
		sets[i] = s.Sp.Instantiate(su)
	}
	r := o.ChooseSpecialization(sets)
	if r.Declined {
		t.Fatal("oracle declined at SpecializeProb 1")
	}
	if r.Chosen {
		if r.Support != 1 || o.Concrete(sets[r.Choice]) != 1 {
			t.Error("oracle picked an insignificant specialization")
		}
	}
	// Pruning: some term outside every MSP cone must be prunable, and terms
	// inside a cone must not be.
	pruned := 0
	for _, term := range s.Terms {
		if _, ok := o.Irrelevant([]vocab.Term{term}); ok {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("nothing prunable despite PruneProb 1")
	}
	for _, m := range msps {
		if _, ok := o.Irrelevant(m.Vals[0]); ok {
			t.Error("MSP value marked irrelevant")
		}
	}
}

func TestDomainsMatchPaperDAGSizes(t *testing.T) {
	for _, cfg := range []DomainConfig{Travel, Culinary, SelfTreatment} {
		cfg.Members = 6 // keep the test fast; size is independent of crowd
		d, err := GenerateDomain(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want := map[string]int{"travel": 4773, "culinary": 10512, "self-treatment": 2307}[cfg.Name]
		if got := d.DAGSize(); got != want {
			t.Errorf("%s DAG size = %d, want %d", cfg.Name, got, want)
		}
		if len(d.Members) != 6 {
			t.Errorf("%s members = %d", cfg.Name, len(d.Members))
		}
	}
}

func TestDomainMiningFindsPopularPatterns(t *testing.T) {
	cfg := SelfTreatment
	cfg.Members = 12
	cfg.Patterns = 8
	d, err := GenerateDomain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Run(core.Config{
		Space:   d.Sp,
		Theta:   0.2,
		Members: d.Members,
		Agg:     aggregate.NewFixedSample(5),
	})
	if len(res.MSPs) == 0 {
		t.Fatal("no MSPs mined from domain crowd")
	}
	// The most popular planted pattern must be significant (appear at or
	// below some MSP).
	topPattern := d.Sp.Singleton(d.PlantedY[0], d.PlantedX[0])
	covered := false
	for _, m := range res.MSPs {
		if d.Sp.Leq(topPattern, m) {
			covered = true
			break
		}
	}
	if !covered {
		t.Error("most popular planted pattern not significant")
	}
}

func TestDistance(t *testing.T) {
	s, err := GenerateSpace(DAGConfig{Width: 20, Depth: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if s.Distance(s.Root, s.Root) != 0 {
		t.Error("self distance ≠ 0")
	}
	child := s.Voc.Children(s.Root)[0]
	if s.Distance(s.Root, child) != 1 {
		t.Error("parent-child distance ≠ 1")
	}
	if s.Distance(child, s.Root) != 1 {
		t.Error("distance not symmetric")
	}
}
