package assign

import "oassis/internal/vocab"

// MinimalAddable exposes the successor generator's minimal-addable walk to
// the external tests, which build their spaces with internal/synth.
func (sp *Space) MinimalAddable(i int, vals []vocab.Term) []vocab.Term {
	return sp.minimalAddable(i, vals)
}

// MinimalAddableScan is the full-domain scan the walk replaced, kept as
// its oracle: every domain term is tested for addability, and an addable
// term is kept when none of its immediate parents is addable. It returns a
// fresh ascending slice.
func (sp *Space) MinimalAddableScan(i int, vals []vocab.Term) []vocab.Term {
	addable := func(t vocab.Term) bool {
		return sp.tab.inDomain(i, t) && compatible(sp.Voc, vals, -1, t)
	}
	var out []vocab.Term
	for _, t := range sp.tab.domains[i] { // sorted ascending
		if !addable(t) {
			continue
		}
		minimal := true
		for _, p := range sp.Voc.Parents(t) {
			if addable(p) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, t)
		}
	}
	return out
}
