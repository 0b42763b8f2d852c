package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// deployFederatedETL deploys the test workflow behind a federation with
// deliberately slow handoff (5 s window) so tests can land requests inside
// it via the advance op.
func deployFederatedETL(t *testing.T, srv *httptest.Server) {
	t.Helper()
	req := map[string]any{
		"wdl": gatewayWDL,
		"functions": map[string]any{
			"extract": map[string]any{"execSeconds": 0.1},
			"load":    map[string]any{"execSeconds": 0.05},
		},
		"federated": true,
		"federation": map[string]any{
			"members":        2,
			"shards":         8,
			"leaseTTLMs":     1000,
			"renewEveryMs":   250,
			"checkEveryMs":   250,
			"handoffDelayMs": 5000,
			"seed":           3,
		},
	}
	var info workflowInfo
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows", req, &info); code != http.StatusCreated {
		t.Fatalf("federated deploy status = %d", code)
	}
}

// fedState is the GET /workflows/{name}/federation response shape the
// tests care about.
type fedState struct {
	Members []string `json:"members"`
	Stats   struct {
		Invocations int64 `json:"invocations"`
		Completed   int64 `json:"completed"`
		Renewals    int64 `json:"renewals"`
		Expiries    int64 `json:"expiries"`
		Claims      int64 `json:"claims"`
		DupDones    int64 `json:"dupDones"`
	} `json:"stats"`
	Exhausted []json.RawMessage `json:"exhausted"`
}

func TestDeployFederatedAndInvoke(t *testing.T) {
	srv := newTestServer(t)
	deployFederatedETL(t, srv)

	var stats invokeResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
		map[string]any{"n": 4}, &stats); code != http.StatusOK {
		t.Fatalf("invoke status = %d", code)
	}
	if stats.Count != 4 || stats.MeanMs <= 0 {
		t.Fatalf("invoke stats = %+v", stats)
	}

	var st fedState
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl/federation", nil, &st); code != http.StatusOK {
		t.Fatalf("federation status = %d", code)
	}
	if len(st.Members) != 2 {
		t.Fatalf("members = %v", st.Members)
	}
	if st.Stats.Invocations != 4 || st.Stats.Completed != 4 {
		t.Fatalf("federation stats = %+v", st.Stats)
	}
	if st.Stats.Renewals == 0 {
		t.Fatal("no lease renewals observed")
	}
	if st.Exhausted == nil {
		t.Fatal("exhausted list must encode as [], not null")
	}

	// Federated members are durable: the journal endpoint serves records.
	var jr map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl/journal", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal status = %d", code)
	}
}

// TestFederationHandoffReturns503ThenSucceeds is the mid-handoff admission
// contract: kill a member, advance the clock into the claim's handoff
// window, and the invoke gets 503 + Retry-After; once the window closes
// the same request succeeds.
func TestFederationHandoffReturns503ThenSucceeds(t *testing.T) {
	srv := newTestServer(t)
	deployFederatedETL(t, srv)

	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
		map[string]any{"n": 1}, nil); code != http.StatusOK {
		t.Fatalf("warm invoke status = %d", code)
	}

	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/federation",
		map[string]any{"op": "kill", "member": "engine-0"}, nil); code != http.StatusOK {
		t.Fatalf("kill status = %d", code)
	}
	// Lease TTL 1s + sweep period 250ms: 2s of clock puts us well inside
	// the 5s handoff window opened by the claim.
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/federation",
		map[string]any{"op": "advance", "advanceMs": 2000}, nil); code != http.StatusOK {
		t.Fatalf("advance status = %d", code)
	}
	var st fedState
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl/federation", nil, &st); code != http.StatusOK {
		t.Fatalf("federation status = %d", code)
	}
	if st.Stats.Expiries == 0 || st.Stats.Claims == 0 {
		t.Fatalf("kill+advance produced no claim: %+v", st.Stats)
	}

	resp, err := http.Post(srv.URL+"/workflows/etl/invoke", "application/json",
		bytes.NewBufferString(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-handoff invoke status = %d, want 503", resp.StatusCode)
	}
	retry := resp.Header.Get("Retry-After")
	if retry == "" {
		t.Fatal("503 without Retry-After header")
	}
	if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integral seconds >= 1", retry)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "handoff") {
		t.Fatalf("503 body = %v", body)
	}

	// Honor the hint: advance past the window and the request succeeds on
	// the surviving member.
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/federation",
		map[string]any{"op": "advance", "advanceMs": (secsToMs(retry) + 1000)}, nil); code != http.StatusOK {
		t.Fatalf("second advance status = %d", code)
	}
	var stats invokeResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
		map[string]any{"n": 1}, &stats); code != http.StatusOK {
		t.Fatalf("post-handoff invoke status = %d, want 200", code)
	}
	if stats.Count != 1 {
		t.Fatalf("post-handoff stats = %+v", stats)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl/federation", nil, &st); code != http.StatusOK {
		t.Fatalf("federation status = %d", code)
	}
	if st.Stats.DupDones != 0 {
		t.Fatalf("handoff double-finished %d invocations", st.Stats.DupDones)
	}
}

func secsToMs(retryAfter string) int {
	secs, _ := strconv.Atoi(retryAfter)
	return secs * 1000
}

// TestFederationEndpointRequiresFederatedDeploy pins the 404 contract.
func TestFederationEndpointRequiresFederatedDeploy(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl/federation", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET federation on plain deploy = %d, want 404", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/federation",
		map[string]any{"op": "kill", "member": "engine-0"}, nil); code != http.StatusNotFound {
		t.Fatalf("POST federation on plain deploy = %d, want 404", code)
	}
}

// TestPlainInvokeRejectedOnFederatedCluster once pinned a 409 for a plain
// workflow on a cluster that also hosts a federated one. The run now steps
// the clock until its own batch completes, so every plain invoke shape
// (closed loop, open loop, tenant, args) answers 200 with every invocation
// counted, and the federated workflow still runs.
func TestPlainInvokeRejectedOnFederatedCluster(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows",
		map[string]any{"benchmark": "IR", "federated": true}, nil); code != http.StatusCreated {
		t.Fatalf("federated deploy status = %d", code)
	}
	for _, body := range []map[string]any{
		{"n": 2},
		{"n": 2, "ratePerMinute": 30},
		{"n": 2, "args": map[string]any{"q": 1}},
	} {
		var out struct {
			Count int `json:"count"`
		}
		if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke", body, &out); code != http.StatusOK || out.Count != 2 {
			t.Fatalf("plain invoke %v on a federated cluster = %d with count %d, want 200 with 2", body, code, out.Count)
		}
	}
	resp := invokeAs(t, srv, "gold", 2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant invoke on a federated cluster = %d, want 200", resp.StatusCode)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/IR/invoke",
		map[string]any{"n": 1}, nil); code != http.StatusOK {
		t.Fatalf("federated invoke = %d, want 200", code)
	}
}

// TestFederationAdminValidation pins the 400 contracts of the admin ops.
func TestFederationAdminValidation(t *testing.T) {
	srv := newTestServer(t)
	deployFederatedETL(t, srv)
	cases := []map[string]any{
		{"op": "reboot"},                                     // unknown op
		{"op": "stall", "member": "engine-0"},                // missing durationMs
		{"op": "advance"},                                    // missing advanceMs
		{"op": "kill", "member": "engine-99"},                // unknown member
		{"op": "stall", "member": "nope", "durationMs": 100}, // unknown member
	}
	for _, c := range cases {
		if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/federation", c, nil); code != http.StatusBadRequest {
			t.Errorf("op %v = %d, want 400", c, code)
		}
	}
	// Open-loop and args invokes are closed-loop-only on federated apps.
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
		map[string]any{"n": 1, "ratePerMinute": 60}, nil); code != http.StatusBadRequest {
		t.Errorf("open-loop federated invoke = %d, want 400", code)
	}
}

// TestClusterSurfacesExhaustionCounters checks the /cluster failures map
// carries the typed re-issue-exhaustion surface (zero on a healthy run).
func TestClusterSurfacesExhaustionCounters(t *testing.T) {
	srv := newTestServer(t)
	deployFederatedETL(t, srv)
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
		map[string]any{"n": 2}, nil); code != http.StatusOK {
		t.Fatal("invoke failed")
	}
	var cl struct {
		Failures       map[string]int64  `json:"failures"`
		ExhaustedSteps []json.RawMessage `json:"exhaustedSteps"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/cluster", nil, &cl); code != http.StatusOK {
		t.Fatal("cluster endpoint failed")
	}
	if _, ok := cl.Failures["reissuesExhausted"]; !ok {
		t.Fatal("failures map missing reissuesExhausted")
	}
	if cl.Failures["reissuesExhausted"] != 0 {
		t.Fatalf("healthy run exhausted %d steps", cl.Failures["reissuesExhausted"])
	}
	if cl.ExhaustedSteps == nil {
		t.Fatal("exhaustedSteps must encode as [], not null")
	}
}
