package plan

import (
	"fmt"

	"oassis/internal/assoc"
	"oassis/internal/itemset"
)

// Substrate is the mining black box behind the planner: given a
// transaction database and a support threshold it returns the maximal
// frequent itemsets. The two substrates of the paper — classic Apriori
// (internal/itemset, references [1]/[28]) and the SIGMOD'13 crowd
// association-rule framework (internal/assoc, reference [3]) — implement
// it, so experiments and ground-truth checks can swap black boxes without
// knowing which one the planner picked.
type Substrate interface {
	// Name returns the registry name of the substrate.
	Name() string
	// MineMaximal returns the maximal itemsets with support ≥ theta,
	// sorted by (size, lexicographic).
	MineMaximal(db []itemset.Itemset, theta float64) []itemset.Support
}

// Registry names of the built-in substrates.
const (
	SubstrateItemset = "itemset"
	SubstrateAssoc   = "assoc"
)

// ItemsetSubstrate mines with the classic levelwise Apriori algorithm
// followed by the maximal filter.
type ItemsetSubstrate struct{}

// Name implements Substrate.
func (ItemsetSubstrate) Name() string { return SubstrateItemset }

// MineMaximal implements Substrate via itemset.Apriori + itemset.Maximal.
func (ItemsetSubstrate) MineMaximal(db []itemset.Itemset, theta float64) []itemset.Support {
	return itemset.Maximal(itemset.Apriori(db, theta))
}

// AssocSubstrate mines through the crowd association-rule black box: it
// generates candidates levelwise like Apriori, but estimates each
// candidate's support by asking simulated crowd users closed questions
// with an empty antecedent ("how often do you do all of X?" — an
// assoc.User answers Closed(∅, X) with the plain support of X). Users
// hold the full transaction database and answer noiselessly, so the
// estimate is exact and the substrate returns precisely the itemset
// substrate's answer — the parity the equivalence tests pin down.
type AssocSubstrate struct {
	// Users is the size of the simulated crowd each support estimate is
	// averaged over; 0 means 3.
	Users int
}

// Name implements Substrate.
func (AssocSubstrate) Name() string { return SubstrateAssoc }

// MineMaximal implements Substrate: Apriori's levelwise loop with the
// crowd's consensus as the support oracle.
func (s AssocSubstrate) MineMaximal(db []itemset.Itemset, theta float64) []itemset.Support {
	n := s.Users
	if n <= 0 {
		n = 3
	}
	users := make([]assoc.User, n)
	for i := range users {
		users[i] = &assoc.SimUser{Name: fmt.Sprintf("substrate-u%02d", i), DB: db}
	}
	// A unanimous crowd's consensus is the answer itself, so the exactness
	// of the users carries through without a lossy mean division; only a
	// split crowd (noisy users) falls back to the sample mean.
	support := func(c itemset.Itemset) float64 {
		first := users[0].Closed(nil, c).Support
		sum, unanimous := first, true
		for _, u := range users[1:] {
			a := u.Closed(nil, c).Support
			if a != first {
				unanimous = false
			}
			sum += a
		}
		if unanimous {
			return first
		}
		return sum / float64(n)
	}
	return itemset.Maximal(itemset.AprioriFunc(db, theta, support))
}

// SubstrateByName resolves a registry name to its Substrate.
func SubstrateByName(name string) (Substrate, error) {
	switch name {
	case SubstrateItemset:
		return ItemsetSubstrate{}, nil
	case SubstrateAssoc, "":
		return AssocSubstrate{}, nil
	}
	return nil, fmt.Errorf("plan: unknown substrate %q", name)
}
