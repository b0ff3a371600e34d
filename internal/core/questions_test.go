package core

import (
	"math/rand"
	"sync"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
)

// TestAliasedNodesShareOneQuestion: the question table keys by question,
// not by lattice node. With both variables ranging over the restaurants,
// the symmetric pattern instantiates (Maoz Veg, Pine) and (Pine, Maoz Veg)
// — and, with the wildcard class, (Restaurant, Pine) and (Pine,
// Restaurant) — into one fact-set each. On the Table 3 members the run
// instantiates 5 nodes into 4 questions, and the member who answered one
// of an aliased pair is not asked the other: 1 free answer. A table keyed
// by node id would ask 5 questions and serve none free.
func TestAliasedNodesShareOneQuestion(t *testing.T) {
	s, q, sp := buildSpace(t, `
SELECT FACT-SETS
WHERE
  $x instanceOf Restaurant.
  $z instanceOf Restaurant
SATISFYING
  [] eatAt $x .
  [] eatAt $z
WITH SUPPORT = 0.4
`)
	sess := runSession(Config{Space: sp, Theta: q.Support, Members: sampleMembers(s)})
	nodes := 0
	for _, q := range sess.eng.nodeQ {
		if q != 0 {
			nodes++
		}
	}
	st := sess.res.Stats
	if nodes != 5 || len(sess.eng.qs.all) != 4 {
		t.Errorf("%d nodes instantiated into %d questions, want 5 into 4", nodes, len(sess.eng.qs.all))
	}
	if st.FreeAnswers != 1 || st.TotalQuestions != 4 || st.UniqueQuestions != 4 {
		t.Errorf("free %d, asked %d, unique %d; want 1, 4, 4", st.FreeAnswers, st.TotalQuestions, st.UniqueQuestions)
	}
}

// TestResultCacheMatchesShadow: the string view a Result's Cache builds on
// first use equals, entry for entry — keys, members and their answers,
// sums, asked flags and the answer count — the string-keyed CrowdCache the
// engine used to keep, replayed from the run's Sink. It runs on random
// brute-force domains (with and without multiplicities, specialization
// and pruning) and on the 16-member travel session under random schedules.
func TestResultCacheMatchesShadow(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		s := newRandomSetup(rng, trial%2 == 1)
		shadow := newShadowCache()
		cfg := Config{Space: s.sp, Theta: s.theta, Members: s.members, Store: shadow}
		if trial%4 >= 2 {
			cfg.SpecializationRatio, cfg.EnablePruning = 0.5, true
			cfg.Rng = rand.New(rand.NewSource(int64(trial)))
		}
		res := Run(cfg)
		if err := shadow.diff(res.Cache); err != nil {
			t.Errorf("domain %d: %v", trial, err)
		}
		if res.Cache.Len() == 0 {
			t.Errorf("domain %d: empty cache", trial)
		}
	}
	ct := newCrowdTravel(t)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		members := ct.d.NewCrowd()
		byID := make(map[string]crowd.Member, len(members))
		for _, m := range members {
			byID[m.ID()] = m
		}
		shadow := newShadowCache()
		cfg := ct.config()
		cfg.Store = shadow
		sess := NewSession(cfg, memberIDs(members))
		for qs := sess.Next(); qs != nil; qs = sess.Next() {
			// The blocked question and a random handful of the
			// speculative ones, in a random order.
			pick := []Question{qs[0]}
			for _, q := range qs[1:] {
				if rng.Intn(8) == 0 {
					pick = append(pick, q)
				}
			}
			rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
			for _, q := range pick {
				if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil && !sess.Done() {
					t.Fatalf("seed %d: submit %d: %v", seed, q.ID, err)
				}
			}
		}
		if err := shadow.diff(sess.Close().Cache); err != nil {
			t.Errorf("travel seed %d: %v", seed, err)
		}
	}
}

// TestResultCacheConcurrentPrime: a Result's Cache, not yet rendered, can
// prime concurrent runs, as Fig 4's threshold replay does across grid
// cells: the first lookups race to build the view and every run replays
// the same answers. Run it under -race.
func TestResultCacheConcurrentPrime(t *testing.T) {
	s, _, sp := buildSpace(t, figure3Restricted)
	low := Run(Config{Space: sp, Theta: 0.2, Members: sampleMembers(s), Agg: aggregate.NewFixedSample(2)})
	const runs = 8
	got := make([]string, runs)
	primed := make([]int, runs)
	var wg sync.WaitGroup
	for i := range got {
		_, _, sp := buildSpace(t, figure3Restricted)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := Run(Config{Space: sp, Theta: 0.4, Members: sampleMembers(s),
				Agg: aggregate.NewFixedSample(2), Prime: low.Cache})
			got[i], primed[i] = summarize(sp, res), res.Stats.PrimedAnswers
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Errorf("run %d replayed differently:\n%s\nrun 0:\n%s", i, g, got[0])
		}
	}
	if primed[0] == 0 {
		t.Error("the runs replayed no primed answers")
	}
}
