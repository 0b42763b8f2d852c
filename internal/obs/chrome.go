package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file renders a TraceLog as a full-system Chrome trace (load it in
// chrome://tracing or https://ui.perfetto.dev). The view covers
// everything the bus sees:
//
//   - executor phases as "X" spans, one process per worker, one thread per
//     invocation;
//   - control-plane trigger chains as "X" spans on a "control" process;
//   - bulk network flows as async "b"/"e" pairs on a "network" process,
//     plus an active-flow counter track;
//   - store operations as "X" spans on a "store" process;
//   - per-node container-count and memory counter tracks.

// chromeEv covers every Chrome trace event shape the exporter emits:
// complete spans ("X"), async begin/end ("b"/"e"), counters ("C"), and
// instants ("i").
type chromeEv struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   *float64       `json:"dur,omitempty"` // microseconds, "X" only
	PID   string         `json:"pid"`
	TID   int64          `json:"tid"`
	ID    string         `json:"id,omitempty"` // async pairing
	Scope string         `json:"s,omitempty"`  // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

func usSpan(start, end int64) (float64, *float64) {
	ts := float64(start) / 1e3
	dur := float64(end-start) / 1e3
	return ts, &dur
}

// ChromeTrace renders every event in the log in Chrome's JSON array
// format. An empty log renders as "[]".
func ChromeTrace(l *TraceLog) ([]byte, error) {
	evs := make([]chromeEv, 0, l.Len())
	for _, ev := range l.Events() {
		switch e := ev.(type) {
		case PhaseEvent:
			name := e.Name
			if e.Replica > 0 {
				name = fmt.Sprintf("%s#%d", e.Name, e.Replica)
			}
			ts, dur := usSpan(int64(e.Start), int64(e.End))
			evs = append(evs, chromeEv{
				Name: name + ":" + e.Comp.String(), Cat: e.Comp.String(),
				Phase: "X", TS: ts, Dur: dur, PID: e.Worker, TID: e.Inv,
				Args: map[string]any{"workflow": e.Workflow, "node": e.Node},
			})
		case TriggerChainEvent:
			for _, s := range e.Segments {
				ts, dur := usSpan(int64(s.Start), int64(s.End))
				evs = append(evs, chromeEv{
					Name:  fmt.Sprintf("%d→%d:%s", e.From, e.To, s.Comp),
					Cat:   s.Comp.String(),
					Phase: "X", TS: ts, Dur: dur, PID: "control", TID: e.Inv,
					Args: map[string]any{"workflow": e.Workflow, "from": e.From, "to": e.To},
				})
			}
		case FlowEvent:
			ph, name := "b", e.From+"→"+e.To
			if e.Done {
				ph = "e"
			}
			fe := chromeEv{
				Name: name, Cat: "flow", Phase: ph,
				TS: float64(e.At) / 1e3, PID: "network", TID: 0,
				ID: fmt.Sprintf("flow-%d", e.ID),
			}
			if e.Done {
				fe.Args = map[string]any{"bytes": e.Bytes, "rate_mbps": e.Rate / 1e6}
			} else {
				fe.Args = map[string]any{"bytes": e.Bytes}
			}
			evs = append(evs, fe,
				counter("network", "active flows", int64(e.At), map[string]any{"flows": e.Active}))
		case MsgEvent:
			evs = append(evs, chromeEv{
				Name: e.From + "→" + e.To, Cat: "msg", Phase: "i",
				TS: float64(e.At) / 1e3, PID: "network", TID: 0, Scope: "p",
				Args: map[string]any{"bytes": e.Bytes},
			})
		case StoreEvent:
			ts, dur := usSpan(int64(e.Start), int64(e.End))
			result := "hit"
			if !e.Hit {
				result = "miss"
			}
			evs = append(evs, chromeEv{
				Name: e.Op + ":" + e.Key, Cat: e.Tier.String(),
				Phase: "X", TS: ts, Dur: dur, PID: "store", TID: 0,
				Args: map[string]any{
					"worker": e.Worker, "tier": e.Tier.String(),
					"bytes": e.Bytes, "result": result,
				},
			})
		case ContainerEvent:
			evs = append(evs,
				counter(e.Node, "containers", int64(e.At), map[string]any{"live": e.Containers}),
				counter(e.Node, "memory", int64(e.At), map[string]any{"bytes": e.MemUsed}))
		case InvocationEvent:
			name := "invocation " + e.Workflow
			ph := "b"
			if e.End {
				ph = "e"
			}
			evs = append(evs, chromeEv{
				Name: name, Cat: "invocation", Phase: ph,
				TS: float64(e.At) / 1e3, PID: "control", TID: e.Inv,
				ID: fmt.Sprintf("inv-%d", e.Inv),
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Name < evs[j].Name
	})
	return json.MarshalIndent(evs, "", " ")
}

func counter(pid, name string, atNS int64, args map[string]any) chromeEv {
	return chromeEv{
		Name: name, Phase: "C",
		TS: float64(atNS) / 1e3, PID: pid, TID: 0, Args: args,
	}
}
