package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// metric is one reported value, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics an untraced run reports, in print order.
// BENCHMARK.json lists the same names with their bounds.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"goodput_frac", "ratio"},
	{"fair_share_min", "ratio"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// layerDefs are the metrics a traced run reports, in print order. A layer
// a workload does not run reports 0.
var layerDefs = []metricDef{
	{"sim.events_per_op", "1/op"},
	{"sim.queue_peak", "count"},
	{"sim.cpu_frac", "ratio"},
	{"network.resolves_per_op", "1/op"},
	{"network.flows_per_op", "1/op"},
	{"network.mb_per_op", "MB/op"},
	{"network.cpu_frac", "ratio"},
	{"cluster.queued_waits_per_op", "1/op"},
	{"cluster.shed_per_op", "1/op"},
	{"cluster.deadline_aborts_per_op", "1/op"},
	{"cluster.cold_starts_per_op", "1/op"},
	{"cluster.cpu_frac", "ratio"},
	{"engine.events_per_op", "1/op"},
	{"engine.master_busy_frac", "ratio"},
	{"engine.replay_skips", "count"},
	{"engine.redispatched", "count"},
	{"engine.cpu_frac", "ratio"},
	{"store.remote_mb_per_op", "MB/op"},
	{"store.local_hit_frac", "ratio"},
	{"store.cpu_frac", "ratio"},
	{"scheduler.deploy_ms", "ms"},
	{"admission.admit_us_p50", "us"},
	{"admission.rejected_frac", "ratio"},
	{"admission.live_at_end", "count"},
	{"admission.cpu_frac", "ratio"},
	{"journal.records_per_sync", "1/sync"},
	{"journal.syncs_per_op", "1/op"},
	{"journal.dup_drops", "count"},
	{"journal.cpu_frac", "ratio"},
	{"federation.invoke_us_p50", "us"},
	{"federation.claims", "count"},
	{"federation.adoptions", "count"},
	{"federation.handoff_rejected_frac", "ratio"},
	{"federation.dup_dones", "count"},
	{"federation.cpu_frac", "ratio"},
	{"obs.events_per_op", "1/op"},
	{"obs.cpu_frac", "ratio"},
	{"gateway.handler_ms_p50", "ms"},
	{"gateway.transport_ms_p50", "ms"},
	{"gateway.cpu_frac", "ratio"},
	{"live.handler_busy_frac", "ratio"},
	{"live.runner_ms_p50", "ms"},
	{"live.cpu_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.malloc_cpu_frac", "ratio"},
	{"trace.throughput_ratio", "ratio"},
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func throughputs(bs []*batch) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = float64(b.ops) / b.work.Seconds()
	}
	return out
}

// endToEnd computes the untraced run's metrics from its batches, the
// set-up probes' times and the peak RSS. Set-up is the median over the
// probes, whose set-up does not grow with a batch's generated inputs;
// other host timings are medians over the batches; the deterministic
// outcome pools the first batch of each input variant.
func endToEnd(bs []*batch, probes []float64, rssMiB float64) map[string]metric {
	var alloc []float64
	for _, b := range bs {
		alloc = append(alloc, float64(b.alloc)/1024/float64(b.ops))
	}
	var ops, good int64
	var lat []float64
	offered, served := map[string]float64{}, map[string]float64{}
	for _, b := range bs[:min(variants, len(bs))] {
		ops += b.ops
		good += b.good
		lat = append(lat, b.lat...)
		for t, n := range b.offered {
			offered[t] += n
			served[t] += b.served[t]
		}
	}
	v := map[string]float64{
		"setup_s":          median(probes),
		"throughput_per_s": median(throughputs(bs)),
		"latency_ms_p50":   percentile(lat, 0.50),
		"latency_ms_p99":   percentile(lat, 0.99),
		"goodput_frac":     float64(good) / float64(ops),
		"fair_share_min":   fairShareMin(offered, served),
		"alloc_kb_per_op":  median(alloc),
		"peak_rss_mb":      rssMiB,
	}
	if bs[0].hostLat {
		v["latency_ms_p50"] = segmentPercentile(bs, 0.50)
		v["latency_ms_p99"] = segmentPercentile(bs, 0.99)
	}
	return withUnits(endToEndDefs, v)
}

// exactMetrics names the end-to-end metrics that depend only on the
// seed's inputs: goodput and fairness always, latency when it is modeled.
func exactMetrics(b *batch) []string {
	out := []string{"goodput_frac", "fair_share_min"}
	if !b.hostLat {
		out = append(out, "latency_ms_p50", "latency_ms_p99")
	}
	return out
}

// perLayer computes the traced run's metrics: counters from the first
// traced batch (they repeat exactly), host timings pooled over the traced
// batches, CPU shares from the profile, and the tracing overhead as traced
// over untraced throughput.
func perLayer(plain, traced []*batch, tr *tracer, leaf map[string]float64, gcFrac float64) map[string]metric {
	c := traced[0].counts
	ops := float64(traced[0].ops)
	per := func(k string) float64 { return c[k] / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cpu := cpuShares(leaf)
	p50 := func(k string) float64 { return median(tr.samples[k]) }
	v := map[string]float64{
		"sim.events_per_op": per("sim.events"),
		"sim.queue_peak":    c["sim.queue_peak"],

		"network.resolves_per_op": per("network.resolves"),
		"network.flows_per_op":    per("network.flows"),
		"network.mb_per_op":       per("network.bytes") / 1e6,

		"cluster.queued_waits_per_op":    per("cluster.queued_waits"),
		"cluster.shed_per_op":            per("cluster.shed"),
		"cluster.deadline_aborts_per_op": per("cluster.deadline_aborts"),
		"cluster.cold_starts_per_op":     per("cluster.cold_starts"),

		"engine.events_per_op":    per("engine.events"),
		"engine.master_busy_frac": ratio(c["engine.master_busy_s"], c["engine.modeled_span_s"]),
		"engine.replay_skips":     c["engine.replay_skips"],
		"engine.redispatched":     c["engine.redispatched"],

		"store.remote_mb_per_op": per("store.remote_bytes") / 1e6,
		"store.local_hit_frac":   ratio(c["store.local_hits"], c["store.local_hits"]+c["store.local_misses"]),

		"scheduler.deploy_ms": p50("scheduler.deploy_ms"),

		"admission.admit_us_p50":  p50("admission.admit_us"),
		"admission.rejected_frac": ratio(c["admission.rejected"], c["admission.decisions"]),
		"admission.live_at_end":   c["admission.live_at_end"],

		"journal.records_per_sync": ratio(c["journal.committed"], c["journal.syncs"]),
		"journal.syncs_per_op":     per("journal.syncs"),
		"journal.dup_drops":        c["journal.dup_drops"],

		"federation.invoke_us_p50":         p50("federation.invoke_us"),
		"federation.claims":                c["federation.claims"],
		"federation.adoptions":             c["federation.adoptions"],
		"federation.handoff_rejected_frac": ratio(c["federation.handoff_rejected"], c["federation.handoff_rejected"]+c["federation.invocations"]),
		"federation.dup_dones":             c["federation.dup_dones"],

		"obs.events_per_op": per("obs.events"),

		"gateway.handler_ms_p50":   p50("gateway.handler_ms"),
		"gateway.transport_ms_p50": p50("gateway.transport_ms"),

		"live.handler_busy_frac": p50("live.handler_busy_frac"),
		"live.runner_ms_p50":     p50("live.runner_ms"),

		"runtime.gc_cpu_frac":     gcFrac,
		"runtime.malloc_cpu_frac": cpu["malloc"],
		"trace.throughput_ratio":  median(throughputs(traced)) / median(throughputs(plain)),
	}
	for _, l := range cpuLayers {
		v[l.layer+".cpu_frac"] = cpu[l.layer]
	}
	return withUnits(layerDefs, v)
}

// peakRSSMiB reports the process's peak resident set: VmHWM from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
