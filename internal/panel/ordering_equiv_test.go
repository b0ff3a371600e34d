package panel_test

import (
	"fmt"
	"strings"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/panel"
	"oassis/internal/plan"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// orderingWorkload is one domain of the ordering matrices; cfg builds a
// fresh Config per run (the engine mutates its space).
type orderingWorkload struct {
	name string
	cfg  func(t *testing.T) core.Config
}

// The travel and culinary synthetic domains of the matrices and the
// benchmark.
var (
	travelDomain = synth.DomainConfig{
		Name: "travel", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 6, Seed: 101,
	}
	culinaryDomain = synth.DomainConfig{
		Name: "culinary", YTerms: 24, XTerms: 12, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 8, Seed: 202,
	}
)

// orderingWorkloads are the Figure-1 running example and the travel and
// culinary synthetic domains.
func orderingWorkloads() []orderingWorkload {
	workloads := []orderingWorkload{
		{"figure1", figure1Config},
	}
	for _, dc := range []synth.DomainConfig{travelDomain, culinaryDomain} {
		dc := dc
		workloads = append(workloads, orderingWorkload{dc.Name, func(t *testing.T) core.Config {
			t.Helper()
			d, err := synth.GenerateDomain(dc)
			if err != nil {
				t.Fatal(err)
			}
			return core.Config{
				Space:   d.Sp,
				Theta:   0.2,
				Members: d.Members,
				Agg:     aggregate.NewFixedSample(3),
			}
		}})
	}
	return workloads
}

// TestOrderingEquivalenceMatrix is the orderings' determinism claim: for
// paper-order and max-prune alike, the sequential run is the reference,
// and dispatch (one question or four per panel, parallelism 1 and 8)
// reproduces it bit-identically: same MSPs, same valid MSPs, same
// statistics. This is the guarantee that caches, WALs and the serving
// tier may treat an ordering variant as one deterministic plan regardless
// of how its session is driven.
func TestOrderingEquivalenceMatrix(t *testing.T) {
	for _, policy := range plan.OrderingNames() {
		withOrd := func(cfg core.Config) core.Config {
			cfg.Ordering = policy
			return cfg
		}
		for _, wl := range orderingWorkloads() {
			want := renderRun(core.Run(withOrd(wl.cfg(t))))
			for _, size := range []int{1, 4} {
				for _, par := range []int{1, 8} {
					name := fmt.Sprintf("%s/%s/panels/size%d/p%d", policy, wl.name, size, par)
					res, _ := panel.Run(withOrd(wl.cfg(t)), panel.Config{Size: size}, par)
					if got := renderRun(res); got != want {
						t.Errorf("%s drifted from sequential:\n--- sequential\n%s--- panels\n%s",
							name, want, got)
					}
				}
			}
		}
	}
}

// traceMember records every question its member is asked, in order.
type traceMember struct {
	crowd.Member
	log *[]string
}

func (m traceMember) Concrete(fs fact.Set) float64 {
	*m.log = append(*m.log, m.ID()+" concrete "+fs.Key())
	return m.Member.Concrete(fs)
}

func (m traceMember) ChooseSpecialization(cands []fact.Set) crowd.SpecializeResponse {
	keys := make([]string, len(cands))
	for i, c := range cands {
		keys[i] = c.Key()
	}
	*m.log = append(*m.log, m.ID()+" specialize "+strings.Join(keys, " | "))
	return m.Member.ChooseSpecialization(cands)
}

func (m traceMember) Irrelevant(terms []vocab.Term) (vocab.Term, bool) {
	*m.log = append(*m.log, fmt.Sprintf("%s prune %v", m.ID(), terms))
	return m.Member.Irrelevant(terms)
}

// TestQuestionTraceDeterminism: the question trace — every question asked
// of every member, in order — not just the MSP set, is identical across
// repeated runs under both orderings. The engine keeps its unclassified
// set in a Go map whose iteration order changes from run to run, and
// classifier.markSignificant walks it to schedule expansions, so node
// intern order differs between runs; the trace must not.
func TestQuestionTraceDeterminism(t *testing.T) {
	const runs = 20
	for _, policy := range plan.OrderingNames() {
		for _, wl := range orderingWorkloads() {
			trace := func() string {
				var log []string
				cfg := wl.cfg(t)
				cfg.Ordering = policy
				for i, m := range cfg.Members {
					cfg.Members[i] = traceMember{m, &log}
				}
				core.Run(cfg)
				return strings.Join(log, "\n")
			}
			want := trace()
			if want == "" {
				t.Fatalf("%s/%s: no questions asked", policy, wl.name)
			}
			for i := 1; i < runs; i++ {
				if got := trace(); got != want {
					t.Fatalf("%s/%s: run %d asked a different question sequence than run 0", policy, wl.name, i)
				}
			}
		}
	}
}
