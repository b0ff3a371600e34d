package core

// Sink receives every recorded crowd answer, in engine order, for durable
// storage (implemented by internal/store.Store). Appends happen on the
// engine's hot path and must be cheap; an append error does not stop the
// run — crowd answers are too expensive to discard over a disk hiccup —
// but is counted in Stats.StoreErrors so callers can surface it.
type Sink interface {
	// AppendAnswer records one crowd answer as the engine enters it in
	// the CrowdCache — the question key, the member and the reported
	// support — plus the question kind and whether the answer was
	// counted toward the run's question statistics.
	AppendAnswer(question, member string, support float64, kind QuestionKind, counted bool) error
}

// sinkAnswer forwards member mi's answer to question q to the configured
// store, if any, building the question's key for it.
func (e *engine) sinkAnswer(q *question, mi int, sup float64, kind QuestionKind, counted bool) {
	if e.cfg.Store == nil {
		return
	}
	if err := e.cfg.Store.AppendAnswer(q.fs.Key(), e.ids[mi], sup, kind, counted); err != nil {
		e.stats.StoreErrors++
		e.cfg.Metrics.storeError()
	}
}
