package harness

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// ColdStartRow is one keep-alive setting's measurement.
type ColdStartRow struct {
	KeepAlive    time.Duration
	PerMinute    float64
	ColdFraction float64 // cold starts / all container acquisitions
	MeanLatency  time.Duration
}

// ColdStartStudy measures how the container keep-alive window trades
// memory for cold starts — the related-work dimension (§7: prewarm/
// keep-alive policies) that the paper's Table 3 fixes at 600 s. Open-loop
// arrivals at the given rate; short keep-alives let containers expire
// between invocations and every front-of-workflow function pays the cold
// start again.
func ColdStartStudy(bench string, keepAlives []time.Duration, perMinute float64, n int) ([]ColdStartRow, error) {
	b := workloads.ByName(bench)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	var rows []ColdStartRow
	for _, ka := range keepAlives {
		cfg := cluster.DefaultConfig()
		cfg.KeepAlive = ka
		tb := NewTestbed(ClusterSpec{FaaStore: true, Cluster: cfg})
		d, err := tb.Deploy(workloads.ByName(bench), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
		if err != nil {
			return nil, err
		}
		rec := tb.Drive(Client{Target: d.Invoke, Arrivals: PerMinute(perMinute), N: n})[0].Rec
		rec.Clamp(Timeout)
		var colds, warms int64
		for _, id := range tb.Workers {
			st := tb.Runtime.Nodes[id].Stats()
			colds += st.ColdStarts
			warms += st.WarmReuses
		}
		frac := 0.0
		if colds+warms > 0 {
			frac = float64(colds) / float64(colds+warms)
		}
		rows = append(rows, ColdStartRow{
			KeepAlive:    ka,
			PerMinute:    perMinute,
			ColdFraction: frac,
			MeanLatency:  rec.Mean(),
		})
	}
	return rows, nil
}

// RenderColdStart builds the cold-start study table.
func RenderColdStart(rows []ColdStartRow) *metrics.Table {
	t := metrics.NewTable("keep-alive", "rate/min", "cold fraction", "mean latency")
	for _, r := range rows {
		t.AddRow(r.KeepAlive.String(), fmt.Sprintf("%.0f", r.PerMinute),
			metrics.Pct(r.ColdFraction), metrics.Seconds(r.MeanLatency))
	}
	return t
}
