package store

import "oassis/internal/obs"

// Metrics bundles the store-layer instruments. Attach one via
// Options.Metrics; a nil Metrics disables instrumentation with zero cost.
// Like the engine's instruments, these are write-only: recording never
// changes what the store persists or recovers.
type Metrics struct {
	appended         [RecPlan + 1]*obs.Counter // by RecordType; nil for types never written
	fsyncs           *obs.Counter
	walBytes         *obs.Counter
	compactions      *obs.Counter
	recoveredAnswers *obs.Gauge
	truncatedBytes   *obs.Gauge
}

// writtenTypes lists the record types the store appends; the retired
// RecClassified and RecIssued are only ever read from older logs.
var writtenTypes = [...]RecordType{RecAnswer, RecSession, RecJoin, RecPlan}

// NewMetrics registers the store instruments on r and returns the handle
// to attach as Options.Metrics. Registering twice on the same registry
// returns handles on the same underlying series.
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{}
	for _, t := range writtenTypes {
		m.appended[t] = r.Counter("oassis_store_records_appended_total",
			"records appended to the WAL", obs.L("type", t.String()))
	}
	m.fsyncs = r.Counter("oassis_store_fsyncs_total",
		"fsync calls on the WAL (append policy, flush, compaction, close)")
	m.walBytes = r.Counter("oassis_store_wal_bytes_total",
		"bytes of framed records written to the WAL")
	m.compactions = r.Counter("oassis_store_compactions_total",
		"snapshot compactions performed")
	m.recoveredAnswers = r.Gauge("oassis_store_recovered_answers",
		"unique answers replayed from disk at the last Open")
	m.truncatedBytes = r.Gauge("oassis_store_recovery_truncated_bytes",
		"torn WAL tail bytes dropped at the last Open")
	return m
}

func (m *Metrics) recordAppended(t RecordType, bytes int) {
	if m == nil {
		return
	}
	m.appended[t].Inc()
	m.walBytes.Add(bytes)
}

func (m *Metrics) fsynced() {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
}

func (m *Metrics) compacted() {
	if m == nil {
		return
	}
	m.compactions.Inc()
}

func (m *Metrics) recovered(rec *Recovered) {
	if m == nil {
		return
	}
	m.recoveredAnswers.Set(int64(len(rec.Answers)))
	m.truncatedBytes.Set(rec.TruncatedBytes)
}
