package core

import (
	"strconv"
	"time"

	"oassis/internal/obs"
)

// Metrics bundles the engine-layer instruments, registered on an
// obs.Registry. Attach one via Config.Metrics; a nil Metrics disables
// instrumentation with zero hot-path cost. Every instrument is write-only
// from the engine's point of view — recording never feeds back into what
// the engine asks or concludes, so results with metrics on are
// bit-identical to results with metrics off (regression-tested at the
// facade).
type Metrics struct {
	issued     [4]*obs.Counter // by QuestionKind
	answered   [4]*obs.Counter
	speculated *obs.Counter
	retired    *obs.Counter
	inFlight   *obs.Gauge
	latency    *obs.Histogram

	answers        [4]*obs.Counter // counted crowd answers, by kind
	freeAnswers    *obs.Counter
	primedAnswers  *obs.Counter
	rounds         *obs.Counter
	nodesGenerated *obs.Counter
	storeErrors    *obs.Counter

	dispatchLaunched *obs.Counter
	dispatchWasted   *obs.Counter

	stopEstimateBP *obs.Gauge   // the stop rule's coverage, basis points
	stopSavedQs    *obs.Counter // questions saved by early stops
	membersBanned  *obs.Counter // members banned by the spam filter
}

// kindLabels maps QuestionKind to the exposition label value. Speculation
// and pruning questions both travel as their underlying kinds.
var kindLabels = [4]string{"concrete", "specialization", "none-of-these", "pruning"}

// NewMetrics registers the engine instruments on r and returns the handle
// to attach as Config.Metrics. Registering twice on the same registry
// returns handles on the same underlying series.
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{}
	for k, kind := range kindLabels {
		m.issued[k] = r.Counter("oassis_session_questions_issued_total",
			"questions surfaced by the session, including speculative ones",
			obs.L("kind", kind))
		m.answered[k] = r.Counter("oassis_session_questions_answered_total",
			"answers submitted to the session", obs.L("kind", kind))
		m.answers[k] = r.Counter("oassis_engine_answers_total",
			"crowd answers counted by the engine", obs.L("kind", kind))
	}
	m.speculated = r.Counter("oassis_session_questions_speculated_total",
		"questions issued speculatively, ahead of the engine's own request")
	m.retired = r.Counter("oassis_session_questions_retired_total",
		"open questions retired unanswered (outrun by the round or the run's end)")
	m.inFlight = r.Gauge("oassis_session_questions_inflight",
		"questions currently issued and awaiting an answer")
	m.latency = r.Histogram("oassis_session_answer_latency_seconds",
		"seconds from question issue to answer submission", nil)
	m.freeAnswers = r.Counter("oassis_engine_free_answers_total",
		"answers derived without crowd effort (cache hits, pruning inference)")
	m.primedAnswers = r.Counter("oassis_engine_primed_answers_total",
		"answers replayed from a primed cache instead of asked live")
	m.rounds = r.Counter("oassis_engine_rounds_total",
		"main-loop rounds (one unclassified lattice node picked per round)")
	m.nodesGenerated = r.Counter("oassis_engine_nodes_generated_total",
		"lattice nodes generated into the pool")
	m.storeErrors = r.Counter("oassis_engine_store_errors_total",
		"failed appends to the durable store (the run keeps going)")
	m.dispatchLaunched = r.Counter("oassis_dispatch_launched_total",
		"questions sent to members by the dispatcher, including speculation")
	m.dispatchWasted = r.Counter("oassis_dispatch_wasted_total",
		"dispatcher answers collected but never consumed by the engine")
	species := obs.L("policy", "species")
	m.stopEstimateBP = r.Gauge("oassis_engine_stop_estimate_bp",
		"stop rule estimate (answer-set coverage) in basis points of 1", species)
	m.stopSavedQs = r.Counter("oassis_engine_stop_saved_questions_total",
		"pool nodes left unclassified by early stops (lower bound on answers saved)", species)
	m.membersBanned = r.Counter("oassis_engine_members_banned_total",
		"members the spam filter banned from further questions")
	return m
}

// kindIdx clamps a QuestionKind into the per-kind instrument arrays.
func kindIdx(k QuestionKind) int {
	if k < 0 || int(k) >= len(kindLabels) {
		return 0
	}
	return int(k)
}

// The nil-receiver guards below make every call site a plain
// `cfg.Metrics.x(...)` with no if-statement; a nil Metrics is a no-op.

func (m *Metrics) questionIssued(k QuestionKind, speculative bool) {
	if m == nil {
		return
	}
	m.issued[kindIdx(k)].Inc()
	if speculative {
		m.speculated.Inc()
	}
	m.inFlight.Inc()
}

func (m *Metrics) questionAnswered(k QuestionKind, latency time.Duration) {
	if m == nil {
		return
	}
	m.answered[kindIdx(k)].Inc()
	m.inFlight.Dec()
	m.latency.Observe(latency.Seconds())
}

func (m *Metrics) questionRetired() {
	if m == nil {
		return
	}
	m.retired.Inc()
	m.inFlight.Dec()
}

func (m *Metrics) answerCounted(k QuestionKind) {
	if m == nil {
		return
	}
	m.answers[kindIdx(k)].Inc()
}

func (m *Metrics) freeAnswer() {
	if m == nil {
		return
	}
	m.freeAnswers.Inc()
}

func (m *Metrics) primedAnswer() {
	if m == nil {
		return
	}
	m.primedAnswers.Inc()
}

func (m *Metrics) roundStarted() {
	if m == nil {
		return
	}
	m.rounds.Inc()
}

func (m *Metrics) nodeGenerated() {
	if m == nil {
		return
	}
	m.nodesGenerated.Inc()
}

func (m *Metrics) storeError() {
	if m == nil {
		return
	}
	m.storeErrors.Inc()
}

// Dispatched books n questions sent to members by a dispatcher (the
// panel layer), including speculative ones.
func (m *Metrics) Dispatched(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.dispatchLaunched.Add(n)
}

// Wasted books n dispatched answers the engine never consumed.
func (m *Metrics) Wasted(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.dispatchWasted.Add(n)
}

func (m *Metrics) stopEstimate(est float64) {
	if m == nil {
		return
	}
	m.stopEstimateBP.Set(int64(est * 10000))
}

func (m *Metrics) stopSaved(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.stopSavedQs.Add(n)
}

func (m *Metrics) memberBanned() {
	if m == nil {
		return
	}
	m.membersBanned.Inc()
}

// strID renders a QuestionID for span attributes.
func strID(id QuestionID) string { return strconv.FormatInt(int64(id), 10) }
