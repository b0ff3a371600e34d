// Package assoc implements the crowd association-rule mining framework of
// the SIGMOD 2013 "Crowd Mining" paper (Amsterdamer, Grossman, Milo,
// Senellart — reference [3] of the OASSIS paper), which OASSIS builds on and
// uses as one of its aggregation black boxes. The framework mines
// significant association rules from a crowd whose personal transaction
// databases are virtual: it interleaves open questions ("tell me a rule you
// find frequent") that seed candidate rules, with closed questions ("how
// often do you buy X with Y?") that estimate a candidate's mean support and
// confidence across the crowd, using sample-mean/variance estimators and a
// normal-approximation significance test.
package assoc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"oassis/internal/itemset"
)

// RuleKey canonically identifies a rule A→B.
func RuleKey(ant, cons itemset.Itemset) string {
	return fmt.Sprintf("%v=>%v", ant, cons)
}

// Answer is one user's (support, confidence) estimate for a rule.
type Answer struct {
	Support    float64
	Confidence float64
}

// User is a crowd member in the association-rule setting.
type User interface {
	ID() string
	// Closed answers a closed question about the rule ant→cons.
	Closed(ant, cons itemset.Itemset) Answer
	// Open volunteers a rule the user believes frequent, or ok=false.
	Open() (ant, cons itemset.Itemset, a Answer, ok bool)
}

// SimUser simulates a crowd member from a concrete transaction database.
type SimUser struct {
	Name string
	DB   []itemset.Itemset
	// Noise adds ±Noise uniform error to reported values (clamped to [0,1]).
	Noise float64
	// MinOpenSupport bounds the rules the user volunteers.
	MinOpenSupport float64
	Rng            *rand.Rand
}

// ID implements User.
func (u *SimUser) ID() string { return u.Name }

func (u *SimUser) noisy(v float64) float64 {
	if u.Noise > 0 && u.Rng != nil {
		v += (u.Rng.Float64()*2 - 1) * u.Noise
	}
	return math.Max(0, math.Min(1, v))
}

// trueStats computes the user's exact support and confidence for ant→cons.
func (u *SimUser) trueStats(ant, cons itemset.Itemset) Answer {
	if len(u.DB) == 0 {
		return Answer{}
	}
	both, antOnly := 0, 0
	union := append(append(itemset.Itemset(nil), ant...), cons...)
	for _, t := range u.DB {
		if containsAll(t, ant) {
			antOnly++
			if containsAll(t, union) {
				both++
			}
		}
	}
	a := Answer{Support: float64(both) / float64(len(u.DB))}
	if antOnly > 0 {
		a.Confidence = float64(both) / float64(antOnly)
	}
	return a
}

func containsAll(t, s itemset.Itemset) bool {
	for _, n := range s {
		found := false
		for _, x := range t {
			if x == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Closed implements User.
func (u *SimUser) Closed(ant, cons itemset.Itemset) Answer {
	a := u.trueStats(ant, cons)
	return Answer{Support: u.noisy(a.Support), Confidence: u.noisy(a.Confidence)}
}

// Open implements User: the user volunteers one of their frequent rules
// (chosen at random among the rules above MinOpenSupport).
func (u *SimUser) Open() (itemset.Itemset, itemset.Itemset, Answer, bool) {
	min := u.MinOpenSupport
	if min <= 0 {
		min = 0.3
	}
	freq := itemset.Apriori(u.DB, min)
	rules := itemset.Rules(freq, 0)
	if len(rules) == 0 {
		return nil, nil, Answer{}, false
	}
	var r itemset.Rule
	if u.Rng != nil {
		r = rules[u.Rng.Intn(len(rules))]
	} else {
		r = rules[0]
	}
	a := Answer{Support: u.noisy(r.Support), Confidence: u.noisy(r.Confidence)}
	return r.Antecedent, r.Consequent, a, true
}

// estimate accumulates per-rule sample statistics across users.
type estimate struct {
	ant, cons itemset.Itemset
	n         float64
	sumS, sqS float64
	sumC, sqC float64
	asked     map[string]bool
}

func (e *estimate) add(user string, a Answer) bool {
	if e.asked[user] {
		return false
	}
	e.asked[user] = true
	e.n++
	e.sumS += a.Support
	e.sqS += a.Support * a.Support
	e.sumC += a.Confidence
	e.sqC += a.Confidence * a.Confidence
	return true
}

func (e *estimate) meanS() float64 { return safeDiv(e.sumS, e.n) }
func (e *estimate) meanC() float64 { return safeDiv(e.sumC, e.n) }

func (e *estimate) seS() float64 { return stderr(e.sumS, e.sqS, e.n) }
func (e *estimate) seC() float64 { return stderr(e.sumC, e.sqC, e.n) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func stderr(sum, sq, n float64) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v / n)
}

// Config parameterizes a crowd-mining run.
type Config struct {
	Users []User
	// ThetaS and ThetaC are the support and confidence thresholds.
	ThetaS, ThetaC float64
	// OpenRatio is the fraction of open questions (the open/closed mix the
	// SIGMOD'13 paper studies).
	OpenRatio float64
	// Z is the normal quantile for the significance test (e.g. 1.96).
	Z float64
	// MinAnswers and MaxAnswers bound the sample size per rule.
	MinAnswers, MaxAnswers int
	// Budget is the total number of questions (0 = derive from candidates).
	Budget int
	Rng    *rand.Rand
}

// MinedRule is an output rule with its estimated statistics.
type MinedRule struct {
	Antecedent itemset.Itemset
	Consequent itemset.Itemset
	Support    float64
	Confidence float64
	Answers    int
}

// Result of a crowd-mining run.
type Result struct {
	Rules     []MinedRule
	Questions int
	Open      int
	Closed    int
}

// Mine runs the open/closed crowd-mining loop: open questions seed the
// candidate pool, closed questions are routed to the most uncertain
// candidate (the one whose support estimate is closest to the threshold
// relative to its standard error) until every candidate is resolved or the
// budget runs out.
func Mine(cfg Config) *Result {
	if cfg.Z == 0 {
		cfg.Z = 1.96
	}
	if cfg.MinAnswers < 1 {
		cfg.MinAnswers = 2
	}
	if cfg.MaxAnswers < cfg.MinAnswers {
		cfg.MaxAnswers = cfg.MinAnswers * 5
	}
	res := &Result{}
	cands := map[string]*estimate{}
	order := []string{}

	addCandidate := func(ant, cons itemset.Itemset) *estimate {
		k := RuleKey(ant, cons)
		if e, ok := cands[k]; ok {
			return e
		}
		e := &estimate{ant: ant, cons: cons, asked: map[string]bool{}}
		cands[k] = e
		order = append(order, k)
		return e
	}

	resolved := func(e *estimate) bool {
		if e.n >= float64(cfg.MaxAnswers) {
			return true
		}
		if e.n < float64(cfg.MinAnswers) {
			return false
		}
		sLow, sHigh := e.meanS()-cfg.Z*e.seS(), e.meanS()+cfg.Z*e.seS()
		cLow, cHigh := e.meanC()-cfg.Z*e.seC(), e.meanC()+cfg.Z*e.seC()
		// Resolved when both estimates are decisively above or below their
		// thresholds.
		sDecided := sLow >= cfg.ThetaS || sHigh < cfg.ThetaS
		cDecided := cLow >= cfg.ThetaC || cHigh < cfg.ThetaC
		if sHigh < cfg.ThetaS || cHigh < cfg.ThetaC {
			return true // insignificant on one dimension suffices
		}
		return sDecided && cDecided
	}

	// uncertainty scores a candidate for closed-question routing.
	uncertainty := func(e *estimate) float64 {
		if e.n < float64(cfg.MinAnswers) {
			return math.Inf(1)
		}
		d := math.Abs(e.meanS()-cfg.ThetaS) / (e.seS() + 1e-9)
		return 1 / (d + 1e-9)
	}

	budget := cfg.Budget
	if budget <= 0 {
		budget = cfg.MaxAnswers * 50
	}
	userAt := 0
	nextUser := func() User {
		u := cfg.Users[userAt%len(cfg.Users)]
		userAt++
		return u
	}

	// unproductiveOpens counts consecutive open questions that added no new
	// candidate; once the whole crowd has been cycled without discovery and
	// all candidates are resolved, the run stops.
	unproductiveOpens := 0
	for res.Questions < budget {
		open := false
		if cfg.Rng != nil && cfg.Rng.Float64() < cfg.OpenRatio {
			open = true
		} else if cfg.Rng == nil && cfg.OpenRatio >= 1 {
			open = true
		}
		if len(order) == 0 {
			open = true // nothing to ask closed questions about yet
		}
		// Closed question: route to the most uncertain unresolved candidate.
		var best *estimate
		if !open {
			bestScore := -1.0
			for _, k := range order {
				e := cands[k]
				if resolved(e) {
					continue
				}
				if s := uncertainty(e); s > bestScore {
					best, bestScore = e, s
				}
			}
			if best == nil {
				open = true // all candidates resolved: keep exploring
			}
		}
		if open {
			if unproductiveOpens >= 2*len(cfg.Users) && allResolved(cands, resolved) {
				break // discovery has dried up and everything is resolved
			}
			u := nextUser()
			res.Questions++
			res.Open++
			before := len(order)
			ant, cons, a, ok := u.Open()
			if ok {
				addCandidate(ant, cons).add(u.ID(), a)
			}
			if len(order) == before {
				unproductiveOpens++
			} else {
				unproductiveOpens = 0
			}
			continue
		}
		// Find a user who has not answered this rule yet.
		var u User
		for range cfg.Users {
			cand := nextUser()
			if !best.asked[cand.ID()] {
				u = cand
				break
			}
		}
		if u == nil {
			// Crowd exhausted for this rule: force-resolve it by capping.
			best.n = float64(cfg.MaxAnswers)
			continue
		}
		res.Questions++
		res.Closed++
		best.add(u.ID(), u.Closed(best.ant, best.cons))
	}

	for _, k := range order {
		e := cands[k]
		if e.meanS() >= cfg.ThetaS && e.meanC() >= cfg.ThetaC && e.n >= float64(cfg.MinAnswers) {
			res.Rules = append(res.Rules, MinedRule{
				Antecedent: e.ant,
				Consequent: e.cons,
				Support:    e.meanS(),
				Confidence: e.meanC(),
				Answers:    int(e.n),
			})
		}
	}
	sort.Slice(res.Rules, func(i, j int) bool {
		return RuleKey(res.Rules[i].Antecedent, res.Rules[i].Consequent) <
			RuleKey(res.Rules[j].Antecedent, res.Rules[j].Consequent)
	})
	return res
}

func allResolved(cands map[string]*estimate, resolved func(*estimate) bool) bool {
	for _, e := range cands {
		if !resolved(e) {
			return false
		}
	}
	return true
}

// GroundTruth computes the truly significant rules over a set of user DBs
// (by exact mean support/confidence), for precision/recall evaluation.
func GroundTruth(users []*SimUser, thetaS, thetaC, seedSupport float64) []MinedRule {
	// Candidate rules: union of all users' frequent rules at a low support.
	seen := map[string][2]itemset.Itemset{}
	for _, u := range users {
		freq := itemset.Apriori(u.DB, seedSupport)
		for _, r := range itemset.Rules(freq, 0) {
			seen[RuleKey(r.Antecedent, r.Consequent)] = [2]itemset.Itemset{r.Antecedent, r.Consequent}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []MinedRule
	for _, k := range keys {
		ant, cons := seen[k][0], seen[k][1]
		var sumS, sumC float64
		for _, u := range users {
			a := u.trueStats(ant, cons)
			sumS += a.Support
			sumC += a.Confidence
		}
		n := float64(len(users))
		if sumS/n >= thetaS && sumC/n >= thetaC {
			out = append(out, MinedRule{Antecedent: ant, Consequent: cons,
				Support: sumS / n, Confidence: sumC / n})
		}
	}
	return out
}

// crowdSize is the number of simulated users MaximalItemsets asks about
// each candidate.
const crowdSize = 3

// MaximalItemsets mines the maximal itemsets of db with support ≥ theta
// through the crowd black box: Apriori's levelwise loop
// (itemset.AprioriFunc) with each candidate's support estimated by asking
// simulated users the closed question ∅→X ("how often do you do all of
// X?"), which a SimUser answers with the plain support of X. The users
// hold all of db and answer noiselessly, so the estimate is exact and the
// result equals itemset.Maximal(itemset.Apriori(db, theta)), sorted by
// (size, lexicographic).
func MaximalItemsets(db []itemset.Itemset, theta float64) []itemset.Support {
	users := make([]User, crowdSize)
	for i := range users {
		users[i] = &SimUser{Name: fmt.Sprintf("itemset-u%02d", i), DB: db}
	}
	// A unanimous crowd's consensus is the answer itself, so the exactness
	// of the users carries through without a lossy mean division; only a
	// split crowd falls back to the sample mean.
	support := func(c itemset.Itemset) float64 {
		first := users[0].Closed(nil, c).Support
		sum, unanimous := first, true
		for _, u := range users[1:] {
			a := u.Closed(nil, c).Support
			unanimous = unanimous && a == first
			sum += a
		}
		if unanimous {
			return first
		}
		return sum / crowdSize
	}
	return itemset.Maximal(itemset.AprioriFunc(db, theta, support))
}

// PrecisionRecall compares mined rules against ground truth.
func PrecisionRecall(mined, truth []MinedRule) (precision, recall float64) {
	truthKeys := map[string]bool{}
	for _, r := range truth {
		truthKeys[RuleKey(r.Antecedent, r.Consequent)] = true
	}
	hit := 0
	for _, r := range mined {
		if truthKeys[RuleKey(r.Antecedent, r.Consequent)] {
			hit++
		}
	}
	if len(mined) > 0 {
		precision = float64(hit) / float64(len(mined))
	}
	if len(truth) > 0 {
		recall = float64(hit) / float64(len(truth))
	}
	return precision, recall
}
