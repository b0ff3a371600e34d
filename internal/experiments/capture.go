package experiments

import (
	"fmt"
	"math/rand"

	"oassis/internal/assoc"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/itemset"
	"oassis/internal/oassisql"
	"oassis/internal/vocab"

	"oassis/internal/assign"
)

// ItemsetCapture verifies the Section 4.1 claim that OASSIS-QL with
// multiplicities captures standard frequent-itemset mining: mining the
// query `SELECT FACT-SETS WHERE SATISFYING $x+ [] [] WITH SUPPORT = θ`
// over a flat vocabulary must return exactly the maximal frequent itemsets
// that Apriori computes on the same transactions.
func ItemsetCapture(items, transactions int, minSupport float64, seed int64) (*Report, error) {
	r := &Report{
		ID:     "itemset-capture",
		Title:  "OASSIS-QL captures frequent itemset mining (§4.1)",
		Header: []string{"miner", "maximal frequent itemsets", "agree"},
	}
	rng := rand.New(rand.NewSource(seed))

	// Flat vocabulary: items as elements without order; one relation.
	v := vocab.New()
	terms := make([]vocab.Term, items)
	for i := range terms {
		terms[i] = v.MustAddElement(fmt.Sprintf("item%02d", i))
	}
	rel := v.MustAddRelation("has")
	basket := v.MustAddElement("basket")
	if err := v.Freeze(); err != nil {
		return nil, err
	}

	// Random transactions, shared between both miners.
	db := make([]itemset.Itemset, transactions)
	pdb := crowd.NewPersonalDB(v)
	for t := range db {
		n := 1 + rng.Intn(4)
		var tx itemset.Itemset
		var fs fact.Set
		for j := 0; j < n; j++ {
			it := rng.Intn(items)
			tx = append(tx, it)
			fs = append(fs, fact.Fact{S: terms[it], R: rel, O: basket})
		}
		db[t] = tx
		pdb.Add(fs.Canon())
	}

	// Ground truth: classic Apriori followed by the maximal filter.
	truthKeys := itemsetKeys(itemset.Maximal(itemset.Apriori(db, minSupport)))

	// OASSIS: the capture query over the same transactions.
	q := &oassisql.Query{
		Select:  oassisql.SelectFactSets,
		Support: minSupport,
		Satisfying: []oassisql.Pattern{{
			S:     oassisql.Var("x"),
			SMult: oassisql.MultPlus,
			R:     oassisql.Atom{Kind: oassisql.AtomAny},
			O:     oassisql.Atom{Kind: oassisql.AtomAny},
			OMult: oassisql.MultOne,
		}},
	}
	sp, err := assign.NewSpace(v, q, nil, nil)
	if err != nil {
		return nil, err
	}
	member := &crowd.SimMember{Name: "u", DB: pdb, Disc: crowd.Exact}
	res := core.Run(core.Config{Space: sp, Theta: minSupport, Members: []crowd.Member{member},
		Metrics: sharedMetrics()})

	// Compare: each mined MSP's value set as an itemset.
	mined := map[string]bool{}
	for _, m := range res.MSPs {
		key := ""
		for _, t := range m.Vals[0] {
			// item terms are interned first, so Term == item index.
			key += fmt.Sprintf("%02d,", int(t))
		}
		mined[key] = true
	}
	agree := sameKeys(mined, truthKeys)

	// The SIGMOD'13 association-rule framework, mining through its crowd
	// oracle, must agree bitwise too.
	assocKeys := itemsetKeys(assoc.MaximalItemsets(db, minSupport))
	r.Add("Apriori+maximal", len(truthKeys), "")
	r.Add("OASSIS $x+ [] []", len(mined), agree)
	r.Add("assoc substrate", len(assocKeys), sameKeys(assocKeys, truthKeys))
	r.Note("questions: %d (unique %d); %d transactions, %d items, θ=%.2f",
		res.Stats.TotalQuestions, res.Stats.UniqueQuestions, transactions, items, minSupport)
	if !agree {
		r.Note("MISMATCH between OASSIS MSPs and Apriori maximal itemsets")
	}
	return r, nil
}

// itemsetKeys renders mined itemsets as canonical comparison keys.
func itemsetKeys(sets []itemset.Support) map[string]bool {
	keys := map[string]bool{}
	for _, s := range sets {
		key := ""
		for _, it := range s.Items {
			key += fmt.Sprintf("%02d,", it)
		}
		keys[key] = true
	}
	return keys
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range b {
		if !a[k] {
			return false
		}
	}
	return true
}

// AssocMiner regenerates the bridge experiment for the SIGMOD'13 Crowd
// Mining framework (reference [3]): precision/recall of the significant
// association rules against ground truth, for different open/closed
// question mixes.
func AssocMiner(users, budget int, seed int64) (*Report, error) {
	r := &Report{
		ID:     "assoc-miner",
		Title:  "Crowd association-rule mining (SIGMOD'13 framework, ref [3])",
		Header: []string{"open ratio", "questions", "rules", "precision", "recall"},
	}
	rng := rand.New(rand.NewSource(seed))
	sim := make([]*assoc.SimUser, users)
	for i := range sim {
		var db []itemset.Itemset
		for t := 0; t < 24; t++ {
			r := rng.Float64()
			switch {
			case r < 0.45:
				db = append(db, itemset.Itemset{1, 2})
			case r < 0.70:
				db = append(db, itemset.Itemset{3, 4})
			case r < 0.85:
				db = append(db, itemset.Itemset{5, 6, 1})
			default:
				db = append(db, itemset.Itemset{rng.Intn(8) + 1})
			}
		}
		sim[i] = &assoc.SimUser{
			Name:           fmt.Sprintf("u%03d", i),
			DB:             db,
			MinOpenSupport: 0.3,
			Rng:            rand.New(rand.NewSource(seed + int64(i))),
		}
	}
	usersIface := make([]assoc.User, len(sim))
	for i, u := range sim {
		usersIface[i] = u
	}
	truth := assoc.GroundTruth(sim, 0.3, 0.5, 0.2)
	for _, ratio := range []float64{0.1, 0.3, 0.5, 1.0} {
		res := assoc.Mine(assoc.Config{
			Users:      usersIface,
			ThetaS:     0.3,
			ThetaC:     0.5,
			OpenRatio:  ratio,
			MinAnswers: 3,
			MaxAnswers: 10,
			Budget:     budget,
			Rng:        rand.New(rand.NewSource(seed + 999)),
		})
		p, rec := assoc.PrecisionRecall(res.Rules, truth)
		r.Add(fmt.Sprintf("%.0f%%", ratio*100), res.Questions, len(res.Rules),
			fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", rec))
	}
	r.Note("ground truth: %d significant rules over %d users", len(truth), users)
	return r, nil
}
