package assoc

import (
	"math/rand"
	"reflect"
	"testing"

	"oassis/internal/itemset"
)

// makeCrowd builds n simulated users over a shared habit pattern: most users
// frequently have {1,2} together (coffee→cookie), a minority has {3,4}.
func makeCrowd(n int, rng *rand.Rand) []*SimUser {
	users := make([]*SimUser, n)
	for i := range users {
		var db []itemset.Itemset
		for t := 0; t < 20; t++ {
			switch {
			case rng.Float64() < 0.6:
				db = append(db, itemset.Itemset{1, 2})
			case rng.Float64() < 0.3:
				db = append(db, itemset.Itemset{3, 4})
			default:
				db = append(db, itemset.Itemset{rng.Intn(8) + 1})
			}
		}
		users[i] = &SimUser{
			Name:           string(rune('a'+i%26)) + string(rune('0'+i/26)),
			DB:             db,
			MinOpenSupport: 0.3,
			Rng:            rand.New(rand.NewSource(int64(i + 1))),
		}
	}
	return users
}

func asUsers(sim []*SimUser) []User {
	out := make([]User, len(sim))
	for i, u := range sim {
		out[i] = u
	}
	return out
}

func TestSimUserClosedExact(t *testing.T) {
	u := &SimUser{Name: "u", DB: []itemset.Itemset{{1, 2}, {1}, {3}}}
	a := u.Closed(itemset.Itemset{1}, itemset.Itemset{2})
	if a.Support != 1.0/3 {
		t.Errorf("support = %v, want 1/3", a.Support)
	}
	if a.Confidence != 0.5 {
		t.Errorf("confidence = %v, want 1/2", a.Confidence)
	}
	// Empty DB answers zero.
	empty := &SimUser{Name: "e"}
	if a := empty.Closed(itemset.Itemset{1}, itemset.Itemset{2}); a.Support != 0 || a.Confidence != 0 {
		t.Error("empty DB should answer 0")
	}
}

func TestSimUserOpen(t *testing.T) {
	u := &SimUser{
		Name:           "u",
		DB:             []itemset.Itemset{{1, 2}, {1, 2}, {1, 2}, {3}},
		MinOpenSupport: 0.5,
		Rng:            rand.New(rand.NewSource(1)),
	}
	ant, cons, a, ok := u.Open()
	if !ok {
		t.Fatal("open question returned nothing")
	}
	union := append(append(itemset.Itemset(nil), ant...), cons...)
	if !containsAll(itemset.Itemset{1, 2}, union) {
		t.Errorf("volunteered rule %v→%v outside the frequent pattern", ant, cons)
	}
	if a.Support < 0.5 {
		t.Errorf("volunteered support %v below MinOpenSupport", a.Support)
	}
	// User with no frequent rules declines.
	poor := &SimUser{Name: "p", DB: []itemset.Itemset{{1}, {2}, {3}}, MinOpenSupport: 0.9}
	if _, _, _, ok := poor.Open(); ok {
		t.Error("user with no frequent rules volunteered one")
	}
}

func TestMineFindsPlantedRule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sim := makeCrowd(20, rng)
	res := Mine(Config{
		Users:      asUsers(sim),
		ThetaS:     0.3,
		ThetaC:     0.5,
		OpenRatio:  0.3,
		MinAnswers: 3,
		MaxAnswers: 8,
		Budget:     400,
		Rng:        rng,
	})
	if res.Questions == 0 || res.Open == 0 || res.Closed == 0 {
		t.Fatalf("question mix: %+v", res)
	}
	found := false
	for _, r := range res.Rules {
		k := RuleKey(r.Antecedent, r.Consequent)
		if k == RuleKey(itemset.Itemset{1}, itemset.Itemset{2}) ||
			k == RuleKey(itemset.Itemset{2}, itemset.Itemset{1}) {
			found = true
			if r.Support < 0.3 {
				t.Errorf("planted rule support %v below threshold", r.Support)
			}
		}
	}
	if !found {
		t.Errorf("planted rule 1→2 not mined; got %d rules", len(res.Rules))
	}
}

func TestMinePrecisionRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sim := makeCrowd(30, rng)
	truth := GroundTruth(sim, 0.3, 0.5, 0.2)
	if len(truth) == 0 {
		t.Fatal("empty ground truth")
	}
	res := Mine(Config{
		Users:      asUsers(sim),
		ThetaS:     0.3,
		ThetaC:     0.5,
		OpenRatio:  0.3,
		MinAnswers: 3,
		MaxAnswers: 10,
		Budget:     600,
		Rng:        rng,
	})
	p, r := PrecisionRecall(res.Rules, truth)
	if p < 0.5 {
		t.Errorf("precision = %v", p)
	}
	if r < 0.4 {
		t.Errorf("recall = %v (truth %d, mined %d)", r, len(truth), len(res.Rules))
	}
}

func TestOpenOnlyVsMixed(t *testing.T) {
	// An open-only strategy discovers candidates but never firms up their
	// crowd-wide estimates; the mixed strategy should not do worse on
	// recall given the same budget.
	rng := rand.New(rand.NewSource(5))
	sim := makeCrowd(25, rng)
	truth := GroundTruth(sim, 0.3, 0.5, 0.2)
	mixed := Mine(Config{
		Users: asUsers(sim), ThetaS: 0.3, ThetaC: 0.5,
		OpenRatio: 0.3, MinAnswers: 3, MaxAnswers: 8, Budget: 300,
		Rng: rand.New(rand.NewSource(6)),
	})
	openOnly := Mine(Config{
		Users: asUsers(sim), ThetaS: 0.3, ThetaC: 0.5,
		OpenRatio: 1.0, MinAnswers: 3, MaxAnswers: 8, Budget: 300,
		Rng: rand.New(rand.NewSource(6)),
	})
	_, rMixed := PrecisionRecall(mixed.Rules, truth)
	_, rOpen := PrecisionRecall(openOnly.Rules, truth)
	if rMixed+0.2 < rOpen {
		t.Errorf("mixed recall %v much worse than open-only %v", rMixed, rOpen)
	}
}

func TestMineBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sim := makeCrowd(10, rng)
	res := Mine(Config{
		Users: asUsers(sim), ThetaS: 0.3, ThetaC: 0.5,
		OpenRatio: 0.5, Budget: 25, Rng: rng,
	})
	if res.Questions > 25 {
		t.Errorf("budget exceeded: %d", res.Questions)
	}
}

func TestNoisyAnswersStillConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sim := makeCrowd(40, rng)
	for _, u := range sim {
		u.Noise = 0.1
	}
	truth := GroundTruth(sim, 0.3, 0.5, 0.2)
	res := Mine(Config{
		Users: asUsers(sim), ThetaS: 0.3, ThetaC: 0.5,
		OpenRatio: 0.3, MinAnswers: 5, MaxAnswers: 15, Budget: 1000,
		Rng: rng,
	})
	p, r := PrecisionRecall(res.Rules, truth)
	if p < 0.4 || r < 0.3 {
		t.Errorf("noisy run degraded too far: precision %v recall %v", p, r)
	}
}

// TestMaximalItemsetsParity: mining through the noiseless crowd oracle
// must return bit-identical maximal frequent itemsets to classic Apriori,
// on arbitrary databases and thresholds.
func TestMaximalItemsetsParity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := make([]itemset.Itemset, 40)
		for i := range db {
			for j := 1 + rng.Intn(4); j > 0; j-- {
				db[i] = append(db[i], rng.Intn(8))
			}
		}
		for _, theta := range []float64{0.1, 0.2, 1.0 / 3.0, 0.5} {
			want := itemset.Maximal(itemset.Apriori(db, theta))
			if got := MaximalItemsets(db, theta); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d theta %g: crowd %v != Apriori %v", seed, theta, got, want)
			}
		}
	}
}
