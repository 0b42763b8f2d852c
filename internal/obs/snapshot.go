package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// This file implements the flight-recorder snapshot: one run's full event
// log, per-workflow latency statistics, and utilization summaries as a
// versioned JSON artifact. Snapshots are the interchange format for the
// regression diff engine (diff.go) and CI gating: two identical simulated
// runs produce byte-identical snapshots (no wall-clock fields, sorted
// orders everywhere), so a nonzero diff always means the code changed
// behavior.

// SnapshotVersion is the current snapshot schema version.
const SnapshotVersion = 1

// SnapshotEvent wraps one bus event with its kind tag so the concrete type
// survives a JSON round trip.
type SnapshotEvent struct {
	Kind string `json:"kind"`
	Ev   Event  `json:"ev"`
}

// UnmarshalJSON decodes the kind tag first, then the payload into the
// matching concrete event type.
func (se *SnapshotEvent) UnmarshalJSON(data []byte) error {
	var raw struct {
		Kind string          `json:"kind"`
		Ev   json.RawMessage `json:"ev"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	ev, err := decodeEvent(raw.Kind, raw.Ev)
	if err != nil {
		return err
	}
	se.Kind, se.Ev = raw.Kind, ev
	return nil
}

func decodeEvent(kind string, raw json.RawMessage) (Event, error) {
	unmarshal := func(v Event) (Event, error) {
		// v is a pointer to the concrete struct; return the value so the
		// reconstructed log holds the same dynamic types the bus publishes.
		if err := json.Unmarshal(raw, v); err != nil {
			return nil, fmt.Errorf("obs: snapshot event %q: %w", kind, err)
		}
		return v, nil
	}
	var ev Event
	var err error
	switch kind {
	case "step":
		ev, err = unmarshal(&StepEvent{})
	case "phase":
		ev, err = unmarshal(&PhaseEvent{})
	case "invocation":
		ev, err = unmarshal(&InvocationEvent{})
	case "trigger-chain":
		ev, err = unmarshal(&TriggerChainEvent{})
	case "container":
		ev, err = unmarshal(&ContainerEvent{})
	case "node-capacity":
		ev, err = unmarshal(&NodeCapacityEvent{})
	case "task":
		ev, err = unmarshal(&TaskEvent{})
	case "flow":
		ev, err = unmarshal(&FlowEvent{})
	case "link-capacity":
		ev, err = unmarshal(&LinkCapacityEvent{})
	case "msg":
		ev, err = unmarshal(&MsgEvent{})
	case "store":
		ev, err = unmarshal(&StoreEvent{})
	case "placement":
		ev, err = unmarshal(&PlacementEvent{})
	case "node-fault":
		ev, err = unmarshal(&NodeFaultEvent{})
	case "link-fault":
		ev, err = unmarshal(&LinkFaultEvent{})
	case "store-fault":
		ev, err = unmarshal(&StoreFaultEvent{})
	case "engine-fault":
		ev, err = unmarshal(&EngineFaultEvent{})
	case "recovery":
		ev, err = unmarshal(&RecoveryEvent{})
	case "admission":
		ev, err = unmarshal(&AdmissionEvent{})
	case "deadline":
		ev, err = unmarshal(&DeadlineEvent{})
	case "breaker":
		ev, err = unmarshal(&BreakerEvent{})
	case "lease":
		ev, err = unmarshal(&LeaseEvent{})
	case "shard-claim":
		ev, err = unmarshal(&ShardClaimEvent{})
	case "fence":
		ev, err = unmarshal(&FenceEvent{})
	case "handoff":
		ev, err = unmarshal(&HandoffEvent{})
	default:
		return nil, fmt.Errorf("obs: snapshot holds unknown event kind %q (newer writer?)", kind)
	}
	if err != nil {
		return nil, err
	}
	// Dereference the pointer: the bus publishes value types.
	switch e := ev.(type) {
	case *StepEvent:
		return *e, nil
	case *PhaseEvent:
		return *e, nil
	case *InvocationEvent:
		return *e, nil
	case *TriggerChainEvent:
		return *e, nil
	case *ContainerEvent:
		return *e, nil
	case *NodeCapacityEvent:
		return *e, nil
	case *TaskEvent:
		return *e, nil
	case *FlowEvent:
		return *e, nil
	case *LinkCapacityEvent:
		return *e, nil
	case *MsgEvent:
		return *e, nil
	case *StoreEvent:
		return *e, nil
	case *PlacementEvent:
		return *e, nil
	case *NodeFaultEvent:
		return *e, nil
	case *LinkFaultEvent:
		return *e, nil
	case *StoreFaultEvent:
		return *e, nil
	case *EngineFaultEvent:
		return *e, nil
	case *RecoveryEvent:
		return *e, nil
	case *AdmissionEvent:
		return *e, nil
	case *DeadlineEvent:
		return *e, nil
	case *BreakerEvent:
		return *e, nil
	case *LeaseEvent:
		return *e, nil
	case *ShardClaimEvent:
		return *e, nil
	case *FenceEvent:
		return *e, nil
	case *HandoffEvent:
		return *e, nil
	}
	return ev, nil
}

// HistBucket is one cumulative latency histogram bucket.
type HistBucket struct {
	LeNs  int64 `json:"leNs"` // upper bound, inclusive; -1 = +Inf
	Count int   `json:"count"`
}

// WorkflowStats is one (workflow, mode) group's latency distribution.
type WorkflowStats struct {
	Workflow string `json:"workflow"`
	Mode     string `json:"mode"`
	Count    int    `json:"count"`
	Failed   int    `json:"failed"`
	// LatenciesNs holds every completed invocation's end-to-end latency,
	// ascending — the exact distribution, from which the percentiles and
	// histogram derive.
	LatenciesNs []int64      `json:"latenciesNs"`
	P50Ns       int64        `json:"p50Ns"`
	P95Ns       int64        `json:"p95Ns"`
	P99Ns       int64        `json:"p99Ns"`
	MeanNs      int64        `json:"meanNs"`
	MaxNs       int64        `json:"maxNs"`
	Hist        []HistBucket `json:"hist"`
}

// percentileNs is the nearest-rank percentile of a sorted slice.
func percentileNs(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// histBuckets builds a cumulative power-of-4 histogram from 1ms up, wide
// enough to cover the workloads' second-to-minute latencies in few buckets.
func histBuckets(sorted []int64) []HistBucket {
	bounds := []int64{}
	for b := int64(time.Millisecond); b <= int64(1024*time.Second); b *= 4 {
		bounds = append(bounds, b)
	}
	out := make([]HistBucket, 0, len(bounds)+1)
	for _, le := range bounds {
		n := sort.Search(len(sorted), func(i int) bool { return sorted[i] > le })
		out = append(out, HistBucket{LeNs: le, Count: n})
	}
	out = append(out, HistBucket{LeNs: -1, Count: len(sorted)})
	return out
}

// Snapshot is one run's complete flight-recorder artifact.
type Snapshot struct {
	Version int `json:"version"`
	// Meta carries caller-supplied labels (system, benchmark, commit). It
	// must not contain wall-clock values if byte-identical snapshots are
	// wanted across reruns.
	Meta        map[string]string `json:"meta,omitempty"`
	Workflows   []WorkflowStats   `json:"workflows"`
	Utilization []ResourceSummary `json:"utilization"`
	Events      []SnapshotEvent   `json:"events"`
}

// BuildSnapshot folds the log into a snapshot: the tagged event stream,
// per-(workflow, mode) latency stats, and utilization summaries.
func BuildSnapshot(l *TraceLog, meta map[string]string) *Snapshot {
	events := l.Events()
	s := &Snapshot{Version: SnapshotVersion, Meta: meta}
	s.Events = make([]SnapshotEvent, len(events))
	for i, ev := range events {
		s.Events[i] = SnapshotEvent{Kind: ev.Kind(), Ev: ev}
	}

	type key struct{ wf, mode string }
	starts := map[int64]sim.Time{}
	group := map[key]*WorkflowStats{}
	var order []key
	for _, ev := range events {
		ie, ok := ev.(InvocationEvent)
		if !ok {
			continue
		}
		if !ie.End {
			starts[ie.Inv] = ie.At
			continue
		}
		k := key{ie.Workflow, ie.Mode}
		ws := group[k]
		if ws == nil {
			ws = &WorkflowStats{Workflow: ie.Workflow, Mode: ie.Mode}
			group[k] = ws
			order = append(order, k)
		}
		ws.Count++
		if ie.Failed {
			ws.Failed++
		}
		if start, ok := starts[ie.Inv]; ok {
			ws.LatenciesNs = append(ws.LatenciesNs, int64(ie.At)-int64(start))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].wf != order[j].wf {
			return order[i].wf < order[j].wf
		}
		return order[i].mode < order[j].mode
	})
	for _, k := range order {
		ws := group[k]
		sort.Slice(ws.LatenciesNs, func(i, j int) bool { return ws.LatenciesNs[i] < ws.LatenciesNs[j] })
		if n := len(ws.LatenciesNs); n > 0 {
			var sum int64
			for _, v := range ws.LatenciesNs {
				sum += v
			}
			ws.P50Ns = percentileNs(ws.LatenciesNs, 50)
			ws.P95Ns = percentileNs(ws.LatenciesNs, 95)
			ws.P99Ns = percentileNs(ws.LatenciesNs, 99)
			ws.MeanNs = sum / int64(n)
			ws.MaxNs = ws.LatenciesNs[n-1]
		}
		ws.Hist = histBuckets(ws.LatenciesNs)
		s.Workflows = append(s.Workflows, *ws)
	}

	s.Utilization = ComputeUtilization(l).Summaries()
	return s
}

// Marshal renders the snapshot as deterministic, indented JSON with a
// trailing newline.
func (s *Snapshot) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseSnapshot decodes a snapshot and checks its version.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("obs: not a snapshot: %w", err)
	}
	if probe.Version != SnapshotVersion {
		return nil, fmt.Errorf("obs: snapshot version %d, this build reads version %d", probe.Version, SnapshotVersion)
	}
	s := &Snapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Log reconstructs a TraceLog from the snapshot's event stream, so every
// analyzer (critical path, utilization, bottlenecks, Chrome export) runs
// on recorded artifacts exactly as on live runs.
func (s *Snapshot) Log() *TraceLog {
	l := NewTraceLog()
	for _, se := range s.Events {
		l.Record(se.Ev)
	}
	return l
}
