package core

// Sink receives every recorded crowd answer and explicit classification
// event, in engine order, for durable storage (implemented by
// internal/store.Store). Appends happen on the engine's hot path and must
// be cheap; an append error does not stop the run — crowd answers are too
// expensive to discard over a disk hiccup — but is counted in
// Stats.StoreErrors so callers can surface it.
type Sink interface {
	// AppendAnswer records one crowd answer as the engine enters it in
	// the CrowdCache — the question key, the member and the reported
	// support — plus the question kind and whether the answer was
	// counted toward the run's question statistics.
	AppendAnswer(question, member string, support float64, kind QuestionKind, counted bool) error
	// AppendClassification records that a lattice node (by key) was
	// explicitly classified significant or insignificant.
	AppendClassification(node string, significant bool) error
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

// sinkClassified forwards a classification event to the configured store.
func (e *engine) sinkClassified(node uint32, significant bool) {
	if e.cfg.Store == nil {
		return
	}
	if err := e.cfg.Store.AppendClassification(e.cfg.Space.Node(node).Key(), significant); err != nil {
		e.stats.StoreErrors++
		e.cfg.Metrics.storeError()
	}
}
