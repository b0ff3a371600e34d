package plan_test

import (
	"fmt"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/panel"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// renderRun flattens a core result into one comparable string: every MSP
// and valid-MSP key in order plus the full statistics. Bit-identical runs
// render identically.
func renderRun(res *core.Result) string {
	out := ""
	for _, m := range res.MSPs {
		out += "msp: " + m.Key() + "\n"
	}
	for _, m := range res.ValidMSPs {
		out += "valid: " + m.Key() + "\n"
	}
	return out + fmt.Sprintf("stats: %+v\n", res.Stats)
}

func runMatrix(sp *assign.Space, members []crowd.Member, parallelism int) *core.Result {
	cfg := core.Config{
		Space:   sp,
		Theta:   0.2,
		Members: members,
		Agg:     aggregate.NewFixedSample(3),
	}
	if parallelism > 1 {
		res, _ := panel.Run(cfg, panel.Config{Size: 1}, parallelism)
		return res
	}
	return core.Run(cfg)
}

// TestPlannedExecutionEquivalence is the core half of the planner
// equivalence matrix: on the synthetic paper domains, executing over a
// space rebuilt from the compiled plan (plus a crowd resynthesized from
// the shared domain) is bit-identical to executing over the directly
// generated domain — at parallelism 1 and 8.
func TestPlannedExecutionEquivalence(t *testing.T) {
	travel := synth.DomainConfig{
		Name: "travel", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 6, Seed: 101,
	}
	culinary := synth.DomainConfig{
		Name: "culinary", YTerms: 24, XTerms: 12, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 8, Seed: 202,
	}
	for _, cfg := range []synth.DomainConfig{travel, culinary} {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("%s/p%d", cfg.Name, par)

			// Seed behavior: the freshly generated domain, used directly.
			d1, err := synth.GenerateDomain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := renderRun(runMatrix(d1.Sp, d1.Members, par))

			// Planned behavior: one shared domain, per-cell space and crowd
			// rebuilt from the compiled plan.
			d2, err := synth.GenerateDomain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := d2.Plan(0.2)
			if err != nil {
				t.Fatal(err)
			}
			got := renderRun(runMatrix(pl.NewSpace(), d2.NewCrowd(), par))
			if got != want {
				t.Errorf("%s: planned execution differs from direct execution:\n--- direct\n%s--- planned\n%s",
					name, want, got)
			}

			// A second cell from the same plan is bit-identical again
			// (spaces and crowds are private; nothing leaked between runs).
			if again := renderRun(runMatrix(pl.NewSpace(), d2.NewCrowd(), par)); again != want {
				t.Errorf("%s: second planned cell drifted:\n--- first\n%s--- second\n%s", name, want, again)
			}
		}
	}
}

// TestPolicyThroughEngine wires both orderings through
// core.Config.Ordering: with deterministic (exact, order-insensitive)
// members, max-prune must converge on the same MSP set as the paper's
// smallest-first order.
func TestPolicyThroughEngine(t *testing.T) {
	cfg := synth.DomainConfig{
		Name: "policy", YTerms: 16, XTerms: 8, YDepth: 3, XDepth: 2,
		Members: 1, Transactions: 16, Patterns: 4, Seed: 7,
	}
	run := func(ordering string) map[string]bool {
		d, err := synth.GenerateDomain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Make the single member exact and deterministic so the mined MSP
		// set is a pure function of its history, not of question order.
		for _, m := range d.Members {
			m.(*crowd.SimMember).Disc = crowd.Exact
		}
		res := core.Run(core.Config{
			Space:    d.Sp,
			Theta:    0.2,
			Members:  d.Members,
			Ordering: ordering,
		})
		keys := make(map[string]bool, len(res.MSPs))
		for _, m := range res.MSPs {
			keys[m.Key()] = true
		}
		return keys
	}
	paper := run("") // "" means paper-order
	if len(paper) == 0 {
		t.Fatal("paper-order run found no MSPs")
	}
	for _, name := range plan.OrderingNames() {
		got := run(name)
		if len(got) != len(paper) {
			t.Fatalf("%s: MSP counts differ: paper-order %d, %s %d",
				name, len(paper), name, len(got))
		}
		for k := range paper {
			if !got[k] {
				t.Errorf("%s missed MSP %s", name, k)
			}
		}
	}
}
