package core

import (
	"testing"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// BenchmarkDrainExpansions measures batched DAG expansion over the full
// Figure 2 lattice: every generated node is queued and expanded to the
// fixpoint, the way a run whose nodes all turn significant would. It
// exercises successor generation, pool dedup and classifier registration
// together — the per-answer bookkeeping the engine pays on the hot path.
func BenchmarkDrainExpansions(b *testing.B) {
	_, _, sp := buildSpace(b, figure2Full)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEngine(Config{Space: sp, Theta: 0.4}, nil)
		e.seed()
		for {
			queued := 0
			for _, id := range e.poolIDs {
				if !e.expanded[id] {
					e.toExpand = append(e.toExpand, id)
					queued++
				}
			}
			if queued == 0 {
				break
			}
			e.drainExpansions()
		}
		if len(e.poolIDs) == 0 {
			b.Fatal("expansion generated no nodes")
		}
	}
}

// BenchmarkEngineRun measures a complete sequential mining run of the
// paper's running example against the Table 3 members — the end-to-end
// engine cost with zero crowd latency.
func BenchmarkEngineRun(b *testing.B) {
	s, _, sp := buildSpace(b, figure2Full)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(Config{Space: sp, Theta: 0.4, Members: sampleMembers(s)})
		if len(res.MSPs) == 0 {
			b.Fatal("run mined no MSPs")
		}
	}
}

// BenchmarkSessionLoop measures the same run driven through the session
// protocol the way a caller does it — Next, then Submit the first
// question's answer — reporting the session's cost per answer on top of
// the engine's.
func BenchmarkSessionLoop(b *testing.B) {
	s, _, sp := buildSpace(b, figure2Full)
	members := sampleMembers(s)
	ids := memberIDs(members)
	answers := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := NewSession(Config{Space: sp, Theta: 0.4}, ids)
		for qs := sess.Next(); qs != nil; qs = sess.Next() {
			q := qs[0]
			for j, id := range ids {
				if id == q.Member {
					sess.Submit(q.ID, AnswerFrom(members[j], q))
				}
			}
			answers++
		}
		if len(sess.Close().MSPs) == 0 {
			b.Fatal("session mined no MSPs")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(answers), "ns/answer")
}

// BenchmarkSessionLoopCrowd measures the session loop over the 16-member
// travel crowd — Next, then Submit the first question's answer — where
// every Next speculates over the crowd and returns hundreds of open
// questions. It reports the cost per answer, split into the time spent in
// Next and in Submit (each call timed on its own, as the repo
// benchmark's traced loop times them), the questions each Next returns,
// and the Space.Leq confirmations per answer the classifier makes once
// its term index exists (leq/answer).
func BenchmarkSessionLoopCrowd(b *testing.B) {
	ct := newCrowdTravel(b)
	answers, questions, calls := 0, 0, 0
	var leqs uint64
	var inNext, inSubmit time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, byID := ct.session()
		b.StartTimer()
		for {
			t0 := time.Now()
			qs := sess.Next()
			inNext += time.Since(t0)
			if qs == nil {
				break
			}
			calls++
			questions += len(qs)
			q := qs[0]
			a := AnswerFrom(byID[q.Member], q)
			t1 := time.Now()
			sess.Submit(q.ID, a)
			inSubmit += time.Since(t1)
			answers++
		}
		leqs += sess.eng.cls.leqCalls()
		if len(sess.Close().MSPs) == 0 {
			b.Fatal("session mined no MSPs")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(answers), "ns/answer")
	b.ReportMetric(float64(leqs)/float64(answers), "leq/answer")
	b.ReportMetric(float64(inNext.Nanoseconds())/float64(answers), "next-ns/answer")
	b.ReportMetric(float64(inSubmit.Nanoseconds())/float64(answers), "submit-ns/answer")
	b.ReportMetric(float64(questions)/float64(calls), "questions/Next")
}

// BenchmarkEngineRunLattice measures a complete sequential mining run
// over a synthetic DAG of the repo benchmark's mine-lattice shape (width
// 500, depth 7, multiplicities on, 5% of the nodes planted as valid MSPs,
// one noiseless oracle, θ 0.5). Unlike Figure 2 it has thousands of
// ValidBase rows, so any per-row cost on the classification path shows
// here. It reports the engine's cost per counted answer, and the Space.Leq
// confirmations per answer the classifier makes once its term index
// exists (leq/answer), a count that does not depend on the host.
func BenchmarkEngineRunLattice(b *testing.B) {
	sp, err := synth.GenerateSpace(synth.DAGConfig{Width: 500, Depth: 7, Multiplicities: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	planted, err := sp.PlantMSPs(synth.MSPConfig{Count: max(1, sp.NodeCount()/20), ValidOnly: true, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := plan.FromSpace("synth:lattice", 0.5, false, plan.DomainFingerprint(sp.Voc, nil), sp.Sp)
	if err != nil {
		b.Fatal(err)
	}
	members := []crowd.Member{synth.NewOracle("u", sp, planted)}
	answers := 0
	var leqs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := Config{Space: pl.NewSpace(), Theta: 0.5, Agg: aggregate.NewFixedSample(1), Members: members}
		b.StartTimer()
		s := runSession(cfg)
		if len(s.res.MSPs) == 0 {
			b.Fatal("run mined no MSPs")
		}
		answers += s.res.Stats.TotalQuestions
		leqs += s.eng.cls.leqCalls()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(answers), "ns/answer")
	b.ReportMetric(float64(leqs)/float64(answers), "leq/answer")
}
