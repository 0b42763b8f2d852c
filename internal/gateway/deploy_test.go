package gateway

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/faasflow"
)

// TestDeployBodyMapsToDeployOptions pins how each POST /workflows body
// maps onto the library's deploy options: which layers the resulting app
// runs (journal, federation, fast path), what its journal and fast-path
// endpoints serve after one invocation, and whether the cluster store
// replicates outputs.
func TestDeployBodyMapsToDeployOptions(t *testing.T) {
	cases := []struct {
		name         string
		body         map[string]any
		durable      bool
		federated    bool
		fastPath     faasflow.FastPath
		members      []string
		replicaWrite bool
	}{
		{
			name: "plain",
			body: map[string]any{"benchmark": "Gen"},
		},
		{
			name: "fastPath",
			body: map[string]any{"benchmark": "Gen",
				"fastPath": map[string]any{"directPassing": true, "prewarm": true}},
			fastPath: faasflow.FastPath{DirectPassing: true, Prewarm: true},
		},
		{
			name:    "durable",
			body:    map[string]any{"benchmark": "Gen", "durable": true},
			durable: true,
		},
		{
			name: "durable+replication+memoize",
			body: map[string]any{"benchmark": "Gen", "durable": true, "replicationFactor": 2,
				"fastPath": map[string]any{"memoize": true}},
			durable:      true,
			fastPath:     faasflow.FastPath{Memoize: true},
			replicaWrite: true,
		},
		{
			name: "federated+fastPath",
			body: map[string]any{"benchmark": "Gen", "federated": true,
				"federation": map[string]any{"members": 2, "shards": 8, "leaseTTLMs": 1000},
				"fastPath":   map[string]any{"prewarm": true}},
			durable:   true,
			federated: true,
			fastPath:  faasflow.FastPath{Prewarm: true},
			members:   []string{"engine-0", "engine-1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 3, FaaStore: true, Seed: 1})
			srv := httptest.NewServer(s.Handler())
			t.Cleanup(srv.Close)

			if code := doJSON(t, http.MethodPost, srv.URL+"/workflows", tc.body, nil); code != http.StatusCreated {
				t.Fatalf("deploy status = %d", code)
			}
			app := s.apps["Gen"]
			if app.Durable() != tc.durable {
				t.Errorf("Durable() = %v, want %v", app.Durable(), tc.durable)
			}
			if app.Federated() != tc.federated {
				t.Errorf("Federated() = %v, want %v", app.Federated(), tc.federated)
			}
			if app.FastPath() != tc.fastPath {
				t.Errorf("FastPath() = %+v, want %+v", app.FastPath(), tc.fastPath)
			}
			if got := app.FederationMembers(); !reflect.DeepEqual(got, tc.members) {
				t.Errorf("FederationMembers() = %v, want %v", got, tc.members)
			}

			var stats invokeResponse
			if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/Gen/invoke",
				map[string]any{"n": 1}, &stats); code != http.StatusOK || stats.Count != 1 {
				t.Fatalf("invoke status = %d, stats = %+v", code, stats)
			}

			var jr struct {
				Entries []faasflow.JournalEntry `json:"entries"`
			}
			code := doJSON(t, http.MethodGet, srv.URL+"/workflows/Gen/journal", nil, &jr)
			switch {
			case !tc.durable && code != http.StatusNotFound:
				t.Errorf("journal status = %d, want 404", code)
			case tc.durable && code != http.StatusOK:
				t.Errorf("journal status = %d, want 200", code)
			case tc.durable && !tc.federated && len(jr.Entries) == 0:
				t.Error("durable app journaled no records")
			}

			var fp struct {
				Options faasflow.FastPath `json:"options"`
			}
			code = doJSON(t, http.MethodGet, srv.URL+"/workflows/Gen/fastpath", nil, &fp)
			switch {
			case !tc.fastPath.Enabled() && code != http.StatusNotFound:
				t.Errorf("fastpath status = %d, want 404", code)
			case tc.fastPath.Enabled() && code != http.StatusOK:
				t.Errorf("fastpath status = %d, want 200", code)
			case tc.fastPath.Enabled() && fp.Options != tc.fastPath:
				t.Errorf("fastpath options = %+v, want %+v", fp.Options, tc.fastPath)
			}

			if got := s.cluster.ReplicationStats().ReplicaWrites > 0; got != tc.replicaWrite {
				t.Errorf("replica writes recorded = %v, want %v (%+v)",
					got, tc.replicaWrite, s.cluster.ReplicationStats())
			}
		})
	}
}
