package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// equivalenceCase is one workload of the Run-vs-session matrix. mkConfig
// builds a fresh Config per run (the engine mutates its space), and every
// member must be a pure function of (member, question) so that
// bit-identical results are even possible.
type equivalenceCase struct {
	name     string
	mkConfig func(t *testing.T) (Config, *assign.Space)
}

// figure1Case is the paper's running example: Table 3's two members over
// the Figure 3 restricted query.
func figure1Case() equivalenceCase {
	return equivalenceCase{
		name: "figure1",
		mkConfig: func(t *testing.T) (Config, *assign.Space) {
			s, q, sp := buildSpace(t, figure3Restricted)
			return Config{
				Space:   sp,
				Theta:   q.Support,
				Members: sampleMembers(s),
				Agg:     aggregate.NewFixedSample(2),
			}, sp
		},
	}
}

// synthCase is a generated domain with planted MSPs answered by pure
// oracles (SpecializeProb 1 specializes deterministically, PruneProb 0
// never prunes, no Rng).
func synthCase(name string, dag synth.DAGConfig, mspCount, members int) equivalenceCase {
	return equivalenceCase{
		name: name,
		mkConfig: func(t *testing.T) (Config, *assign.Space) {
			sp, err := synth.GenerateSpace(dag)
			if err != nil {
				t.Fatal(err)
			}
			planted, err := sp.PlantMSPs(synth.MSPConfig{Count: mspCount, Seed: dag.Seed})
			if err != nil {
				t.Fatal(err)
			}
			crowd := make([]crowd.Member, members)
			for i := range crowd {
				o := synth.NewOracle(fmt.Sprintf("m%d", i), sp, planted)
				o.SpecializeProb = 1
				crowd[i] = o
			}
			return Config{
				Space:               sp.Sp,
				Theta:               0.5,
				Members:             crowd,
				Agg:                 aggregate.NewFixedSample(members),
				SpecializationRatio: 0.3,
			}, sp.Sp
		},
	}
}

func equivalenceCases() []equivalenceCase {
	return []equivalenceCase{
		figure1Case(),
		synthCase("synth-wide", synth.DAGConfig{
			Width: 12, Depth: 3, XWidth: 6, XDepth: 2, Seed: 7,
		}, 5, 3),
		synthCase("synth-deep", synth.DAGConfig{
			Width: 6, Depth: 5, XWidth: 4, XDepth: 3, Seed: 11,
		}, 4, 2),
	}
}

// summarize renders a result for equality comparison: the exact MSP set,
// the valid MSP set, and the full statistics.
func summarize(sp *assign.Space, res *Result) string {
	return fmt.Sprintf("msps=%v valid=%v stats=%+v answers=%v",
		sortedNames(sp, res.MSPs), sortedNames(sp, res.ValidMSPs),
		res.Stats, res.AnswersByMember)
}

func sortedNames(sp *assign.Space, msps []assign.Assignment) []string {
	names := make(map[string]bool, len(msps))
	for _, m := range msps {
		names[sp.Format(m)] = true
	}
	out := make([]string, 0, len(names))
	for k := range names {
		out = append(out, k)
	}
	// Insertion sort keeps the helper dependency-free.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestEquivalenceMatrix verifies the step machine's core promise: Run
// (members answering inline), a session driven strictly sequentially, a
// session whose speculative answers all land ahead of the engine's own
// question (reverse surfacing order, the adversarial merge order), and one
// answering every surfaced question in a seeded random order produce
// identical MSPs and statistics on the Figure 1 sample and two synthetic
// domains. The dispatched legs — panel.Run at sizes 1/4/16 and
// parallelism 1 and 8 — are pinned by the matrix in internal/panel.
func TestEquivalenceMatrix(t *testing.T) {
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg, sp := tc.mkConfig(t)
			want := summarize(sp, Run(cfg))
			for _, order := range []string{"sequential", "speculative-first", "shuffled"} {
				cfg2, sp2 := tc.mkConfig(t)
				byID := make(map[string]crowd.Member)
				for _, m := range cfg2.Members {
					byID[m.ID()] = m
				}
				rng := rand.New(rand.NewSource(int64(len(tc.name))))
				sess := NewSession(cfg2, memberIDs(cfg2.Members))
				for qs := sess.Next(); qs != nil; qs = sess.Next() {
					switch order {
					case "sequential":
						qs = qs[:1]
					case "shuffled":
						// Next's view is the session's own: shuffle a copy.
						qs = slices.Clone(qs)
						rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
					}
					for i := len(qs) - 1; i >= 0 && !sess.Done(); i-- {
						if err := sess.Submit(qs[i].ID, AnswerFrom(byID[qs[i].Member], qs[i])); err != nil {
							t.Fatalf("%s submit: %v", order, err)
						}
					}
				}
				if got := summarize(sp2, sess.Close()); got != want {
					t.Errorf("%s session diverged:\n got %s\nwant %s", order, got, want)
				}
			}
		})
	}
}

// TestSessionHoldsNoGoroutine: a session is plain data between calls —
// with a hundred live sessions open, each parked on its first question,
// no goroutine runs in, or was started by, a session or its engine. It
// reads the goroutines' stacks rather than counting them, so a goroutine
// of another test that exits late cannot trip it.
func TestSessionHoldsNoGoroutine(t *testing.T) {
	_, q, sp := buildSpace(t, figure3Restricted)
	sessions := make([]*Session, 100)
	for i := range sessions {
		sessions[i] = NewSession(Config{
			Space: sp,
			Theta: q.Support,
			Agg:   aggregate.NewFixedSample(2),
		}, []string{"u1", "u2"})
		if len(sessions[i].Next()) == 0 {
			t.Fatal("session not parked on a question")
		}
	}
	if n, stack := sessionGoroutines(); n != 0 {
		t.Errorf("%d goroutine(s) held by 100 open sessions, want 0; first:\n%s", n, stack)
	}
	for _, s := range sessions {
		if s.Close() == nil {
			t.Fatal("no partial result from Close")
		}
	}
}

// sessionGoroutines counts the goroutines, the caller's excepted, with a
// frame in a Session or engine method or in NewSession (which also
// matches the "created by" line of a goroutine it started), and returns
// the first one's stack.
func sessionGoroutines() (int, string) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n, first := 0, ""
	for _, stack := range strings.Split(string(buf), "\n\n")[1:] { // [0] is the caller
		for _, frame := range []string{"internal/core.(*Session)", "internal/core.(*engine)", "internal/core.NewSession"} {
			if strings.Contains(stack, frame) {
				if n == 0 {
					first = stack
				}
				n++
				break
			}
		}
	}
	return n, first
}
