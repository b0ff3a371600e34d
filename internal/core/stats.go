package core

import "fmt"

// QuestionKind classifies crowd answers, matching the breakdown the paper
// reports in §6.3 (concrete, specialization, "none of these", user-guided
// pruning clicks).
type QuestionKind int

// Answer kinds.
const (
	KindConcrete QuestionKind = iota
	KindSpecialization
	KindNoneOfThese
	KindPruning
)

func (k QuestionKind) String() string {
	switch k {
	case KindConcrete:
		return "concrete"
	case KindSpecialization:
		return "specialization"
	case KindNoneOfThese:
		return "none-of-these"
	case KindPruning:
		return "pruning"
	default:
		return fmt.Sprintf("QuestionKind(%d)", int(k))
	}
}

// Point is one timeline sample, taken after each counted crowd answer.
type Point struct {
	Questions int // cumulative counted answers
	// ClassifiedValid counts the valid base assignments classified so far.
	// Keeping it costs one order test per ValidBase row for each explicit
	// classification, paid only when Config.TrackTimeline is set.
	ClassifiedValid int
	MSPsFound       int // chain maxima recorded so far (MSP candidates)
}

// Stats aggregates the measurements the paper's figures are built from.
type Stats struct {
	TotalQuestions  int // all counted crowd answers, including repetitions
	UniqueQuestions int // distinct fact-set questions (crowd complexity, §4.1)

	Concrete       int
	Specialization int
	NoneOfThese    int
	Pruning        int

	// FreeAnswers are answers derived without user effort (member answer
	// cache hits and pruning inferences); they are not counted above.
	FreeAnswers int

	// PrimedAnswers counts answers served from a prior run's CrowdCache
	// (threshold replay, §6.3); they are included in TotalQuestions.
	PrimedAnswers int

	// ForcedClassifications counts nodes classified by mean because the
	// crowd was exhausted (by leaving, budgets or bans) before the
	// aggregator could decide. Early-stop settlement is not among them
	// (StopSettled).
	ForcedClassifications int

	// BannedMembers counts members the spam filter banned (Config.
	// SpamFilter, §4.2 crowd-member selection). A banned member is asked
	// nothing more; the answers they gave before the ban stay recorded
	// and keep counting in the aggregator.
	BannedMembers int

	// StoppedEarly reports that the stop rule ended the run before
	// every generated node was classified.
	StoppedEarly bool

	// StopEstimate is the stop rule's final Good–Turing coverage in
	// [0, 1]; 0 with no rule attached.
	StopEstimate float64

	// StopSettled counts pool nodes an early stop classified from the
	// answers already in hand (the frontier settlement pass): nodes whose
	// verdict no answer still missing from their sample could change.
	StopSettled int

	// StopUnclassified counts pool nodes an early stop left
	// unclassified — nodes with no answers or with answers that do not
	// yet fix their verdict. Each needs at least one more crowd answer,
	// so the count is a lower bound on the answers saved.
	StopUnclassified int

	// StoreErrors counts failed appends to Config.Store; the run keeps
	// going (answers are too expensive to discard over a disk error), but
	// a non-zero count means the store is missing records.
	StoreErrors int

	GeneratedNodes int // lattice nodes generated lazily

	Timeline []Point // present when Config.TrackTimeline
}

func (s *Stats) String() string {
	return fmt.Sprintf("questions=%d unique=%d (concrete=%d special=%d none=%d prune=%d free=%d) nodes=%d",
		s.TotalQuestions, s.UniqueQuestions, s.Concrete, s.Specialization,
		s.NoneOfThese, s.Pruning, s.FreeAnswers, s.GeneratedNodes)
}
