package serve

import (
	"strconv"
	"time"

	"oassis/internal/obs"
)

// pollOutcomes are the label values of oassis_serve_polls_total.
var pollOutcomes = []string{"question", "timeout", "done", "shutdown", "shed", "disconnect"}

// tenantObs holds the per-tenant serving instruments.
type tenantObs struct {
	dispatch   *obs.Histogram // question-dispatch latency (poll start → question out)
	p99        *obs.Gauge     // live p99 estimate of dispatch, refreshed per dispatch
	polls      map[string]*obs.Counter
	opened     *obs.Counter
	retired    *obs.Counter
	panels     *obs.Counter
	panelItems *obs.Counter
}

func newTenantObs(r *obs.Registry, tenant string) *tenantObs {
	o := &tenantObs{
		dispatch: r.Histogram("oassis_serve_dispatch_seconds",
			"latency from poll arrival to a question handed out",
			obs.LatencyBuckets, obs.L("tenant", tenant)),
		p99: r.Gauge("oassis_serve_dispatch_p99_microseconds",
			"p99 question-dispatch latency estimated from the histogram (gauges are integral, hence microseconds)",
			obs.L("tenant", tenant)),
		polls:   make(map[string]*obs.Counter, len(pollOutcomes)),
		opened:  r.Counter("oassis_serve_sessions_opened_total", "sessions attached (new or recovered)", obs.L("tenant", tenant)),
		retired: r.Counter("oassis_serve_sessions_retired_total", "sessions retired from serving", obs.L("tenant", tenant)),
		panels: r.Counter("oassis_serve_panels_total",
			"panels dispatched to members", obs.L("tenant", tenant)),
		panelItems: r.Counter("oassis_serve_panel_items_total",
			"questions dispatched inside panels", obs.L("tenant", tenant)),
	}
	for _, out := range pollOutcomes {
		o.polls[out] = r.Counter("oassis_serve_polls_total",
			"poll calls by outcome", obs.L("tenant", tenant), obs.L("outcome", out))
	}
	return o
}

func (o *tenantObs) poll(outcome string) {
	if c := o.polls[outcome]; c != nil {
		c.Inc()
	}
}

// dispatched records a successful question hand-out: the latency sample
// and a refreshed p99 gauge, so the quantile is scrapeable without
// server-side PromQL.
func (o *tenantObs) dispatched(start time.Time) {
	o.poll("question")
	o.dispatch.Observe(time.Since(start).Seconds())
	o.p99.Set(int64(o.dispatch.Quantile(0.99) * 1e6))
}

// panelled counts a panel hand-out and its items; its one dispatch
// latency sample (a panel is one round trip) is recorded by dispatched.
func (o *tenantObs) panelled(items int) {
	o.panels.Inc()
	o.panelItems.Add(items)
}

// shardObs holds the per-shard serving instruments.
type shardObs struct {
	live       *obs.Gauge
	waiters    *obs.Gauge
	shedGlobal *obs.Counter
	shedShard  *obs.Counter
}

func newShardObs(r *obs.Registry, tenant string, idx int) *shardObs {
	shard := strconv.Itoa(idx)
	return &shardObs{
		live: r.Gauge("oassis_serve_sessions_live",
			"unfinished sessions hosted on the shard",
			obs.L("tenant", tenant), obs.L("shard", shard)),
		waiters: r.Gauge("oassis_serve_waiters",
			"long-poll waiters parked against the shard's bound",
			obs.L("tenant", tenant), obs.L("shard", shard)),
		shedGlobal: r.Counter("oassis_serve_sheds_total",
			"polls shed by admission control",
			obs.L("tenant", tenant), obs.L("shard", shard), obs.L("reason", "global")),
		shedShard: r.Counter("oassis_serve_sheds_total",
			"polls shed by admission control",
			obs.L("tenant", tenant), obs.L("shard", shard), obs.L("reason", "shard")),
	}
}
