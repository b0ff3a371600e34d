package plan_test

import (
	"fmt"
	"sync"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// TestNewSpaceAllocsFlat: a session's Space shares every plan-invariant
// piece — the ValidBase rows, the valid-row key set, the tables — so the
// allocations plan.NewSpace makes do not grow with the plan's valid rows.
// The travel domain and a width-500 synthetic DAG, whose valid row counts
// lie far apart, must cost the same.
func TestNewSpaceAllocsFlat(t *testing.T) {
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	travel, err := d.Plan(0.2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := synth.GenerateSpace(synth.DAGConfig{Width: 500, Depth: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := plan.FromSpace("synth:width-500", 0.5, false, plan.DomainFingerprint(s.Voc, nil), s.Sp)
	if err != nil {
		t.Fatal(err)
	}
	nt, nw := len(travel.ValidBase), len(wide.ValidBase)
	if max(nt, nw) < 4*min(nt, nw) {
		t.Fatalf("travel has %d valid rows, the width-500 plan %d: the gate needs sizes far apart", nt, nw)
	}
	allocs := func(pl *plan.Plan) float64 {
		return testing.AllocsPerRun(50, func() { pl.NewSpace() })
	}
	if at, aw := allocs(travel), allocs(wide); at != aw {
		t.Fatalf("NewSpace allocates %.0f times on travel (%d valid rows), %.0f on the width-500 plan (%d): per-session cost follows ValidBase",
			at, nt, aw, nw)
	}
}

// TestConcurrentSessionsSharePlan opens sessions of one fresh plan from 8
// goroutines at once, so the first sessions race to compute the shared
// Minimal seeds while the others read them and the valid-row key set.
// Each session, answered in full (speculative questions included), must
// mine exactly what core.Run mines over a privately built space. Run
// under -race it also checks that sessions only read what they share.
func TestConcurrentSessionsSharePlan(t *testing.T) {
	dag := synth.DAGConfig{Width: 12, Depth: 3, XWidth: 6, XDepth: 2, Seed: 7}
	s, err := synth.GenerateSpace(dag)
	if err != nil {
		t.Fatal(err)
	}
	planted, err := s.PlantMSPs(synth.MSPConfig{Count: 5, Seed: dag.Seed})
	if err != nil {
		t.Fatal(err)
	}
	const members = 3
	crowdOf := func() []crowd.Member {
		out := make([]crowd.Member, members)
		for i := range out {
			o := synth.NewOracle(fmt.Sprintf("m%d", i), s, planted)
			o.SpecializeProb = 1
			out[i] = o
		}
		return out
	}
	config := func(sp *assign.Space, ms []crowd.Member) core.Config {
		return core.Config{
			Space:               sp,
			Theta:               0.5,
			Members:             ms,
			Agg:                 aggregate.NewFixedSample(members),
			SpecializationRatio: 0.3,
		}
	}
	sp := s.Sp
	want := renderRun(core.Run(config(assign.FromShared(sp.Voc, sp.Vars, sp.Sat, sp.More, sp.ValidBase, nil), crowdOf())))

	// A plan over tables no session has read yet: its seeds are computed
	// by whichever session asks first.
	fresh := assign.FromShared(sp.Voc, sp.Vars, sp.Sat, sp.More, sp.ValidBase, nil)
	pl, err := plan.FromSpace("synth:shared", 0.5, false, plan.DomainFingerprint(s.Voc, nil), fresh)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	crowds := make([][]crowd.Member, sessions)
	for i := range crowds {
		crowds[i] = crowdOf()
	}
	got := make([]string, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ms := crowds[g]
			byID := make(map[string]crowd.Member, len(ms))
			ids := make([]string, len(ms))
			for i, m := range ms {
				byID[m.ID()], ids[i] = m, m.ID()
			}
			<-start
			sess := core.NewSession(config(pl.NewSpace(), nil), ids)
			for qs := sess.Next(); qs != nil; qs = sess.Next() {
				for _, q := range qs {
					if sess.Done() {
						break
					}
					if err := sess.Submit(q.ID, core.AnswerFrom(byID[q.Member], q)); err != nil {
						got[g] = "submit: " + err.Error()
						return
					}
				}
			}
			got[g] = renderRun(sess.Close())
		}(g)
	}
	close(start)
	wg.Wait()
	for g, r := range got {
		if r != want {
			t.Errorf("session %d mined differently from core.Run:\n--- Run\n%s--- session\n%s", g, want, r)
		}
	}
}
