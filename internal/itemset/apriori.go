// Package itemset implements classic frequent itemset mining (Agrawal &
// Srikant's Apriori, reference [1] of the paper) and taxonomy-aware
// generalized itemset mining (Srikant & Agrawal, reference [28]). The paper
// shows that OASSIS-QL with multiplicities captures standard frequent
// itemset mining (Section 4.1: empty WHERE clause and `$x+ [] []`); this
// package provides the ground-truth implementations the experiments
// cross-check against, and doubles as the pattern generator for synthetic
// crowds.
package itemset

import (
	"sort"
)

// Itemset is a sorted set of item identifiers.
type Itemset []int

// Support pairs an itemset with its support.
type Support struct {
	Items   Itemset
	Support float64
}

// key returns a canonical map key.
func (s Itemset) key() string {
	b := make([]byte, 0, len(s)*4)
	for _, it := range s {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

// canon sorts and deduplicates s.
func canon(s Itemset) Itemset {
	out := append(Itemset(nil), s...)
	sort.Ints(out)
	w := 0
	for i, it := range out {
		if i > 0 && it == out[w-1] {
			continue
		}
		out[w] = it
		w++
	}
	return out[:w]
}

// contains reports whether sorted hay contains all of sorted needle.
func contains(hay, needle Itemset) bool {
	i := 0
	for _, n := range needle {
		for i < len(hay) && hay[i] < n {
			i++
		}
		if i >= len(hay) || hay[i] != n {
			return false
		}
	}
	return true
}

// Apriori mines all itemsets with support ≥ minSupport from the transaction
// database, levelwise with candidate pruning. Transactions need not be
// sorted or deduplicated. The result is sorted by (size, lexicographic).
func Apriori(db []Itemset, minSupport float64) []Support {
	txns := make([]Itemset, len(db))
	for i, t := range db {
		txns[i] = canon(t)
	}
	n := float64(len(txns))
	return AprioriFunc(db, minSupport, func(s Itemset) float64 {
		c := 0
		for _, t := range txns {
			if contains(t, s) {
				c++
			}
		}
		return float64(c) / n
	})
}

// AprioriFunc is Apriori's levelwise join/prune loop with the support
// count replaced by an oracle: over the items occurring in db, every
// candidate whose subsets are all frequent is passed to support exactly
// once, and kept when the returned support is ≥ minSupport. Apriori plugs
// in transaction counting; assoc.MaximalItemsets plugs in its crowd's
// consensus estimate. The result is sorted by (size, lexicographic).
func AprioriFunc(db []Itemset, minSupport float64, support func(Itemset) float64) []Support {
	if len(db) == 0 || minSupport <= 0 {
		return nil
	}
	itemSet := map[int]struct{}{}
	for _, t := range db {
		for _, it := range t {
			itemSet[it] = struct{}{}
		}
	}

	var out []Support
	// Level 1.
	var level []Itemset
	items := make([]int, 0, len(itemSet))
	for it := range itemSet {
		items = append(items, it)
	}
	sort.Ints(items)
	for _, it := range items {
		s := Itemset{it}
		if sup := support(s); sup >= minSupport {
			out = append(out, Support{Items: s, Support: sup})
			level = append(level, s)
		}
	}
	// Levels k ≥ 2: join + prune + count.
	for len(level) > 0 {
		freq := map[string]struct{}{}
		for _, s := range level {
			freq[s.key()] = struct{}{}
		}
		candSet := map[string]Itemset{}
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, b := level[i], level[j]
				// Apriori join: equal prefixes, differing last items.
				if !equalPrefix(a, b) {
					continue
				}
				c := append(append(Itemset(nil), a...), b[len(b)-1])
				c = canon(c)
				if len(c) != len(a)+1 {
					continue
				}
				if !allSubsetsFrequent(c, freq) {
					continue
				}
				candSet[c.key()] = c
			}
		}
		keys := make([]string, 0, len(candSet))
		for k := range candSet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var next []Itemset
		for _, k := range keys {
			c := candSet[k]
			if sup := support(c); sup >= minSupport {
				out = append(out, Support{Items: c, Support: sup})
				next = append(next, c)
			}
		}
		level = next
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Items) != len(out[j].Items) {
			return len(out[i].Items) < len(out[j].Items)
		}
		return less(out[i].Items, out[j].Items)
	})
	return out
}

func equalPrefix(a, b Itemset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[len(a)-1] != b[len(b)-1]
}

func allSubsetsFrequent(c Itemset, freq map[string]struct{}) bool {
	tmp := make(Itemset, len(c)-1)
	for drop := range c {
		copy(tmp, c[:drop])
		copy(tmp[drop:], c[drop+1:])
		if _, ok := freq[tmp.key()]; !ok {
			return false
		}
	}
	return true
}

func less(a, b Itemset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Maximal filters a frequent-itemset collection down to its maximal
// elements (itemsets with no frequent proper superset).
func Maximal(sets []Support) []Support {
	var out []Support
	for i, a := range sets {
		maximal := true
		for j, b := range sets {
			if i != j && len(b.Items) > len(a.Items) && contains(b.Items, a.Items) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	return out
}

// Rule is an association rule A → B with its support and confidence.
type Rule struct {
	Antecedent Itemset
	Consequent Itemset
	Support    float64
	Confidence float64
}

// Rules derives the association rules with confidence ≥ minConfidence from
// a frequent-itemset collection (with supports), splitting each frequent
// itemset of size ≥ 2 into antecedent/consequent pairs with singleton
// consequents (the standard reduced form).
func Rules(sets []Support, minConfidence float64) []Rule {
	bySet := map[string]float64{}
	for _, s := range sets {
		bySet[s.Items.key()] = s.Support
	}
	var out []Rule
	for _, s := range sets {
		if len(s.Items) < 2 {
			continue
		}
		for drop := range s.Items {
			ant := make(Itemset, 0, len(s.Items)-1)
			ant = append(ant, s.Items[:drop]...)
			ant = append(ant, s.Items[drop+1:]...)
			antSup, ok := bySet[ant.key()]
			if !ok || antSup == 0 {
				continue
			}
			conf := s.Support / antSup
			if conf >= minConfidence {
				out = append(out, Rule{
					Antecedent: ant,
					Consequent: Itemset{s.Items[drop]},
					Support:    s.Support,
					Confidence: conf,
				})
			}
		}
	}
	return out
}
