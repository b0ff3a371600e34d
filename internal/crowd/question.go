package crowd

import (
	"fmt"
	"strings"

	"oassis/internal/fact"
	"oassis/internal/vocab"
)

// Templates renders fact-sets as natural-language questions using
// domain-specific per-relation templates, as in the paper's UI (§6.2): the
// assignment ⟨Ball Game, doAt, Central Park⟩ becomes "engage in ball games
// in Central Park", and bundles render as "How often do you X and also Y?".
type Templates struct {
	Voc *vocab.Vocabulary
	// ByRelation maps a relation name to a format string with two %s verbs
	// (subject, object), e.g. "do %s in %s" for doAt.
	ByRelation map[string]string
	// Generic is used for relations without a template; it receives
	// subject, relation and object names.
	Generic string
}

// NewTemplates returns templates for the running example's relations.
func NewTemplates(v *vocab.Vocabulary) *Templates {
	return &Templates{
		Voc: v,
		ByRelation: map[string]string{
			"doAt":  "do %s at %s",
			"eatAt": "eat %s at %s",
		},
		Generic: "%s %s %s",
	}
}

func (t *Templates) name(x vocab.Term) string {
	if x == vocab.Any {
		return "anything"
	}
	return t.Voc.Name(x)
}

// Phrase renders one fact as a verb phrase.
func (t *Templates) Phrase(f fact.Fact) string {
	rel := t.name(f.R)
	if tpl, ok := t.ByRelation[rel]; ok {
		return fmt.Sprintf(tpl, t.name(f.S), t.name(f.O))
	}
	g := t.Generic
	if g == "" {
		g = "%s %s %s"
	}
	return fmt.Sprintf(g, t.name(f.S), rel, t.name(f.O))
}

// Concrete renders a concrete question about fs: "How often do you X and
// also Y?" (Section 2's bundled question form).
func (t *Templates) Concrete(fs fact.Set) string {
	phrases := make([]string, len(fs))
	for i, f := range fs {
		phrases[i] = t.Phrase(f)
	}
	return "How often do you " + strings.Join(phrases, " and also ") + "?"
}

// Specialization renders a specialization question about fs: "Can you be
// more specific: what do you do when you ...? How often?".
func (t *Templates) Specialization(fs fact.Set) string {
	return "Can you specify: when you " + strings.TrimSuffix(strings.TrimPrefix(t.Concrete(fs), "How often do you "), "?") +
		", what exactly do you do, and how often?"
}

// AnswerScale is the UI's five-point frequency scale with its numeric
// interpretation.
var AnswerScale = []struct {
	Label   string
	Support float64
}{
	{"never", 0},
	{"rarely", 0.25},
	{"sometimes", 0.5},
	{"often", 0.75},
	{"very often", 1},
}
