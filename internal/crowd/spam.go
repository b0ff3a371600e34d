package crowd

import (
	"encoding/binary"
	"hash/fnv"

	"oassis/internal/fact"
	"oassis/internal/vocab"
)

// The members below model the crowd-member selection problem of §4.2:
// spammers whose answers carry no information about their habits, and
// honest members whose answers are off by a scale step now and then. Their
// answers are pure functions of (seed, question), so a run asks them the
// same questions and hears the same answers in every execution mode.

// step is one step of the paper's five-level answer scale.
const step = 0.25

// draw is a deterministic uniform value in [0, 1) for the question fs
// under seed: FNV-1a over the seed and the question's canonical key.
func draw(seed int64, salt byte, fs fact.Set) float64 {
	h := fnv.New64a()
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	b[8] = salt
	h.Write(b[:])
	h.Write([]byte(fs.Key()))
	return float64(h.Sum64()>>11) / (1 << 53)
}

// RandomSpammer answers every concrete question with one of the five
// answer levels, picked uniformly at random per question and independent
// of the question's content. It declines specialization questions and
// never prunes.
type RandomSpammer struct {
	Name string
	Seed int64
}

// ID implements Member.
func (m *RandomSpammer) ID() string { return m.Name }

// Concrete implements Member.
func (m *RandomSpammer) Concrete(fs fact.Set) float64 {
	return float64(int(draw(m.Seed, 0, fs)*5)) * step
}

// ChooseSpecialization implements Member: always declines.
func (m *RandomSpammer) ChooseSpecialization([]fact.Set) SpecializeResponse {
	return DeclineSpecialization()
}

// Irrelevant implements Member: never prunes.
func (m *RandomSpammer) Irrelevant([]vocab.Term) (vocab.Term, bool) { return vocab.None, false }

// YesSpammer claims full support for every concrete question: the lazy
// worker who clicks "very often" on everything. It declines specialization
// questions and never prunes.
type YesSpammer struct{ Name string }

// ID implements Member.
func (m *YesSpammer) ID() string { return m.Name }

// Concrete implements Member.
func (m *YesSpammer) Concrete(fact.Set) float64 { return 1 }

// ChooseSpecialization implements Member: always declines.
func (m *YesSpammer) ChooseSpecialization([]fact.Set) SpecializeResponse {
	return DeclineSpecialization()
}

// Irrelevant implements Member: never prunes.
func (m *YesSpammer) Irrelevant([]vocab.Term) (vocab.Term, bool) { return vocab.None, false }

// Noisy wraps an honest member whose concrete answers are, with
// probability P per question, one scale step away from the member's own
// answer (up or down with equal odds, turned back at the ends of the
// scale). Specialization and pruning pass through unchanged.
type Noisy struct {
	Member
	P    float64
	Seed int64
}

// Concrete implements Member.
func (m *Noisy) Concrete(fs fact.Set) float64 {
	s := m.Member.Concrete(fs)
	if draw(m.Seed, 0, fs) >= m.P {
		return s
	}
	d := step
	if draw(m.Seed, 1, fs) < 0.5 {
		d = -step
	}
	if s+d < 0 || s+d > 1 {
		d = -d
	}
	return s + d
}
