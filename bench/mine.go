package main

import (
	"fmt"
	"time"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// deriveSeed mixes the run seed with an input index (splitmix64), so each
// input of a run gets its own stream and neighbouring run seeds share none.
func deriveSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	if s := int64(z >> 2); s != 0 {
		return s
	}
	return 1
}

// buildCrowdInputs generates the mine-crowd inputs: the paper's travel
// domain (DAG 4773) with a simulated crowd, and per input a seed for the
// engine's coin flips between specialization and concrete questions. The
// crowd — histories and choices — stays the domain's. The query runs the
// crowd-summary configuration: θ=0.2, five answers per question,
// specialization 0.35 and user-guided pruning.
func buildCrowdInputs(cfg runConfig) ([]*queryInput, error) {
	dc := synth.Travel
	dc.Members = cfg.size.crowdMembers
	d, err := synth.GenerateDomain(dc)
	if err != nil {
		return nil, err
	}
	pl, err := d.Plan(0.2)
	if err != nil {
		return nil, err
	}
	ins := make([]*queryInput, cfg.size.crowdInputs)
	for k := range ins {
		s := deriveSeed(cfg.seed, k)
		ins[k] = &queryInput{pl: pl, theta: 0.2, sample: 5, specRatio: 0.35, pruning: true,
			rngSeed: s, newCrowd: d.NewCrowd}
	}
	return ins, nil
}

// buildLatticeInputs generates the mine-lattice inputs: per input a seeded
// synthetic DAG (depth 7, multiplicities on), 5% of its nodes planted as
// valid MSPs, and one noiseless oracle member answering from them (θ=0.5).
func buildLatticeInputs(cfg runConfig) ([]*queryInput, error) {
	ins := make([]*queryInput, cfg.size.latticeInputs)
	for k := range ins {
		s := deriveSeed(cfg.seed, k)
		sp, err := synth.GenerateSpace(synth.DAGConfig{
			Width: cfg.size.latticeWidth, Depth: 7, Multiplicities: true, Seed: s,
		})
		if err != nil {
			return nil, err
		}
		planted, err := sp.PlantMSPs(synth.MSPConfig{
			Count: max(1, sp.NodeCount()/20), ValidOnly: true, Seed: s + 3,
		})
		if err != nil {
			return nil, err
		}
		pl, err := plan.FromSpace("synth:lattice", 0.5, false, plan.DomainFingerprint(sp.Voc, nil), sp.Sp)
		if err != nil {
			return nil, err
		}
		oracle := synth.NewOracle("u", sp, planted)
		ins[k] = &queryInput{pl: pl, theta: 0.5, sample: 1,
			newCrowd: func() []crowd.Member { return []crowd.Member{oracle} }}
	}
	return ins, nil
}

func runMineCrowd(cfg runConfig, rep *report) error {
	return runMine(cfg, rep, buildCrowdInputs)
}

func runMineLattice(cfg runConfig, rep *report) error {
	return runMine(cfg, rep, buildLatticeInputs)
}

// setServeOnly zeroes the per-layer metrics of layers a mining workload
// never reaches.
func (r *report) setServeOnly() {
	for _, n := range []string{
		"serve.poll.empty_ratio", "serve.goroutines_per_session", "serve.heap_kb_per_session",
		"serve.sheds_per_answer",
	} {
		r.set(n, 0)
	}
}

// setupMine builds the inputs, as often as cfg.moreSetups says, each time
// through the session's first question over the first input, and keeps
// the last build.
func setupMine(cfg runConfig, build func(runConfig) ([]*queryInput, error)) ([]*queryInput, []float64, error) {
	var ins []*queryInput
	var times []float64
	for start := time.Now(); cfg.moreSetups(len(times), start); {
		t0 := time.Now()
		var err error
		ins, err = build(cfg)
		if err != nil {
			return nil, nil, err
		}
		members := ins[0].newCrowd()
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = m.ID()
		}
		s := core.NewSession(ins[0].config(), ids)
		times = append(times, time.Since(t0).Seconds())
		s.Close()
	}
	return ins, times, nil
}

// minRounds is how many times an untraced mining run times every input at
// least: answers_per_s reads each input's median query time, which a
// passing stall of the machine does not move.
const minRounds = 3

// minePassOut is one measured pass over the inputs.
type minePassOut struct {
	answers, queries, rounds int
	wall                     time.Duration // summed query time
	medianWall               time.Duration // summed per-input median query time
	roundAnswers             int           // answers in one round over the inputs
	elapsed                  time.Duration
}

// rate is answers per second of median query time: every input weighs
// the same whatever the number of rounds, and a query slowed by the
// machine in one round is outvoted by the others.
func (p *minePassOut) rate() float64 {
	return ratio(float64(p.roundAnswers), p.medianWall.Seconds())
}

// minePass runs rounds of queries back to back, each round every input
// once in order. It starts another round while that round would end
// nearer the window's end than the last one did, and in any case until it
// has run least; with cfg.ops it runs exactly cfg.ops rounds. Every result
// is checked against its input's reference.
func minePass(cfg runConfig, ins []*queryInput, window time.Duration, least int, o *loopObs, rep *report) minePassOut {
	start := time.Now()
	var out minePassOut
	times := make([][]float64, len(ins))
	answers := make([]int, len(ins))
	var last time.Duration // the last round's length
	for r := 0; ; r++ {
		if cfg.ops > 0 {
			if r >= cfg.ops {
				break
			}
		} else if r >= least && time.Since(start)+last/2 >= window {
			break
		}
		r0 := time.Now()
		for k, in := range ins {
			qr, err := runQuery(in, o)
			rep.attempted += int64(qr.answers) + 1
			if err != nil {
				rep.fail("round %d query %d: %v", r, k, err)
				continue
			}
			if err := in.check(qr.res); err != nil {
				rep.fail("round %d query %d: %v", r, k, err)
			}
			times[k] = append(times[k], qr.wall.Seconds())
			answers[k] = qr.answers
			out.answers += qr.answers
			out.queries++
			out.wall += qr.wall
		}
		last = time.Since(r0)
		out.rounds++
	}
	for k, ts := range times {
		if len(ts) > 0 {
			out.medianWall += time.Duration(median(ts) * float64(time.Second))
			out.roundAnswers += answers[k]
		}
	}
	out.elapsed = time.Since(start)
	return out
}

// runMine measures a mining workload: back-to-back queries, each on a
// fresh lattice and crowd, driven by one goroutine through the facade's
// sequential session loop.
func runMine(cfg runConfig, rep *report, build func(runConfig) ([]*queryInput, error)) error {
	ins, setups, err := setupMine(cfg, build)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups))
	rep.setReferences(ins)

	// Each half of a traced run times every input at least twice, so that
	// neither half's rate is the first round's alone, which runs slower.
	window, least := cfg.window, minRounds
	if cfg.trace {
		window, least = window/2, 2
	}
	var heaps []uint64
	var question, answer []int64
	p0 := readProc()
	u := minePass(cfg, ins, window, least, &loopObs{question: &question, answer: &answer, heap: &heaps}, rep)
	p1 := readProc()
	if len(heaps) == 0 {
		return fmt.Errorf("no query reached its heap probe")
	}
	aps := u.rate()
	rep.set("answers_per_s", aps)
	rep.note("untraced: %d rounds of %d inputs, %d answers in %.3fs of query time (%.3fs elapsed); %.1f answers/s over all queries",
		u.rounds, len(ins), u.answers, u.wall.Seconds(), u.elapsed.Seconds(), ratio(float64(u.answers), u.wall.Seconds()))
	if err := rep.setLatency("question", question); err != nil {
		return err
	}
	if err := rep.setLatency("answer", answer); err != nil {
		return err
	}
	mb := make([]float64, len(heaps))
	for i, h := range heaps {
		mb[i] = float64(h) / 1e6
	}
	rep.set("heap_mb", median(mb))
	rep.setProc(p0, p1, int64(u.answers))
	rep.setServeOnly()
	if !cfg.trace {
		return nil
	}

	tr := newTracer(time.Now(), 0, cfg.spans, spCoreNext, spCoreSubmit)
	reg := obs.NewRegistry()
	var questions int
	t := minePass(cfg, ins, window, least, &loopObs{tr: tr, metrics: core.NewMetrics(reg), questions: &questions}, rep)
	agg := tr.collect()
	n := float64(t.answers)
	tracedAPS := t.rate()
	rep.note("traced: %d queries, %d answers, %.1f answers/s", t.queries, t.answers, tracedAPS)
	rep.set("trace.overhead_ratio", 1-ratio(tracedAPS, aps))
	sessionNs := rep.setSessionLayers(&agg, t.answers, questions)
	rep.set("crowd.ns_per_answer", ratio(float64(agg.self[spCrowd]), n))
	rep.set("core.speculated_per_answer", ratio(float64(reg.Counter("oassis_session_questions_speculated_total", "").Value()), n))
	rep.set("core.retired_per_answer", ratio(float64(reg.Counter("oassis_session_questions_retired_total", "").Value()), n))
	rep.setBusy("api.question.busy_ns", agg.durs[spCoreNext])
	rep.setBusy("api.answer.busy_ns", agg.durs[spCoreSubmit])
	rep.setShares(&agg, t.elapsed, 1)
	replayLayers(rep, ins[:min(len(ins), max(1, t.queries))], sessionNs)
	return nil
}

// succReplayLimit bounds the Successors calls replayed per input.
const succReplayLimit = 5000

// replayLayers measures, on the given inputs, the layers a workload's own
// loop does not isolate: core.Run with the crowd's time excluded, and
// Space.Successors over the reference's significant nodes. sessionNs is
// the session's cost per answer measured on the same inputs.
func replayLayers(rep *report, ins []*queryInput, sessionNs float64) {
	tr := newTracer(time.Now(), 0, nil)
	calls := 0
	for _, in := range ins {
		calls += tracedRun(in, tr)
	}
	a := tr.collect()
	runNs := ratio(float64(a.self[spCoreRun]), float64(calls))
	rep.set("core.run.ns_per_answer", runNs)
	rep.set("core.session.overhead_ratio", ratio(sessionNs, runNs))
	var succCalls int
	var succTime time.Duration
	var allocs uint64
	for _, in := range ins {
		c, d, al := succReplay(in, succReplayLimit)
		succCalls += c
		succTime += d
		allocs += al
	}
	rep.set("assign.successors.ns_per_call", ratio(float64(succTime), float64(succCalls)))
	rep.set("assign.successors.allocs_per_call", ratio(float64(allocs), float64(succCalls)))
	rep.note("replay: core.Run over %d inputs (%d crowd calls), Successors on %d nodes", len(ins), calls, succCalls)
}
