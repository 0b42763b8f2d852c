package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Config{Workers: 3, FaaStore: true, Seed: 1}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

const gatewayWDL = `
name: etl
steps:
  - name: extract
    function: extract
    output: 1048576
  - name: load
    function: load
`

func deployETL(t *testing.T, srv *httptest.Server) {
	t.Helper()
	req := map[string]any{
		"wdl": gatewayWDL,
		"functions": map[string]any{
			"extract": map[string]any{"execSeconds": 0.1},
			"load":    map[string]any{"execSeconds": 0.05},
		},
	}
	var info workflowInfo
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows", req, &info); code != http.StatusCreated {
		t.Fatalf("deploy status = %d", code)
	}
	if info.Name != "etl" || info.Tasks != 2 || info.Groups == 0 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Placement) != 2 {
		t.Fatalf("placement = %v", info.Placement)
	}
}

func TestDeployAndInvoke(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)

	var names []string
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows", nil, &names); code != 200 {
		t.Fatalf("list status = %d", code)
	}
	if len(names) != 1 || names[0] != "etl" {
		t.Fatalf("names = %v", names)
	}

	var stats invokeResponse
	code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
		map[string]any{"n": 10}, &stats)
	if code != 200 {
		t.Fatalf("invoke status = %d", code)
	}
	if stats.Count != 10 || stats.MeanMs < 150 {
		t.Fatalf("stats = %+v (critical exec is 150ms)", stats)
	}
	if stats.P99Ms < stats.P50Ms {
		t.Fatalf("percentiles inverted: %+v", stats)
	}
}

func TestDeployBenchmark(t *testing.T) {
	srv := newTestServer(t)
	var info workflowInfo
	code := doJSON(t, http.MethodPost, srv.URL+"/workflows",
		map[string]any{"benchmark": "Vid"}, &info)
	if code != http.StatusCreated {
		t.Fatalf("status = %d", code)
	}
	if info.Tasks != 10 {
		t.Fatalf("info = %+v", info)
	}
}

func TestGetWorkflowInfo(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	var info workflowInfo
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl", nil, &info); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if info.LocalizedPercent != 100 {
		t.Fatalf("chain should be fully local: %+v", info)
	}
}

func TestClusterStats(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke", map[string]any{"n": 3}, nil)
	var u map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/cluster", nil, &u); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if u["coldStarts"].(float64) == 0 {
		t.Fatalf("cluster stats empty: %v", u)
	}
	failures, ok := u["failures"].(map[string]any)
	if !ok {
		t.Fatalf("cluster stats missing failure counters: %v", u)
	}
	for _, key := range []string{"timeouts", "reissues", "replacements", "failedInvocations"} {
		if _, ok := failures[key]; !ok {
			t.Errorf("failure counters missing %q: %v", key, failures)
		}
	}
}

func TestUtilizationAndBottleneckEndpoints(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke", map[string]any{"n": 3}, nil)

	var resources []map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/utilization", nil, &resources); code != 200 {
		t.Fatalf("utilization status = %d", code)
	}
	names := map[string]bool{}
	for _, r := range resources {
		names[r["name"].(string)] = true
	}
	for _, want := range []string{"node:w0:cpu", "node:w0:containers", "link:master:egress"} {
		if !names[want] {
			t.Fatalf("utilization missing %s; got %v", want, names)
		}
	}

	var sums []map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl/bottlenecks", nil, &sums); code != 200 {
		t.Fatalf("bottlenecks status = %d", code)
	}
	if len(sums) != 1 || sums[0]["workflow"] != "etl" {
		t.Fatalf("bottlenecks = %v", sums)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var out []map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/benchmarks", nil, &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(out) != 8 {
		t.Fatalf("benchmarks = %d", len(out))
	}
}

func TestErrorPaths(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/workflows", map[string]any{}, http.StatusBadRequest},
		{"POST", "/workflows", map[string]any{"benchmark": "nope"}, http.StatusNotFound},
		{"POST", "/workflows", map[string]any{"wdl": "not: [valid"}, http.StatusBadRequest},
		{"GET", "/workflows/ghost", nil, http.StatusNotFound},
		{"POST", "/workflows/ghost/invoke", map[string]any{"n": 1}, http.StatusNotFound},
		{"DELETE", "/workflows", nil, http.StatusMethodNotAllowed},
		{"POST", "/benchmarks", map[string]any{}, http.StatusMethodNotAllowed},
		{"POST", "/cluster", map[string]any{}, http.StatusMethodNotAllowed},
		{"POST", "/utilization", map[string]any{}, http.StatusMethodNotAllowed},
		{"GET", "/workflows/ghost/bottlenecks", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		var out map[string]any
		code := doJSON(t, tc.method, srv.URL+tc.path, tc.body, &out)
		if code != tc.want {
			t.Errorf("%s %s = %d, want %d (%v)", tc.method, tc.path, code, tc.want, out)
		}
		if _, hasErr := out["error"]; !hasErr {
			t.Errorf("%s %s: error body missing", tc.method, tc.path)
		}
	}
}

func TestDuplicateDeployRejected(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	req := map[string]any{
		"wdl": gatewayWDL,
		"functions": map[string]any{
			"extract": map[string]any{"execSeconds": 0.1},
			"load":    map[string]any{"execSeconds": 0.05},
		},
	}
	var out map[string]any
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows", req, &out); code != http.StatusConflict {
		t.Fatalf("duplicate deploy status = %d", code)
	}
}

func TestInvokeWithArgsRoutesSwitch(t *testing.T) {
	srv := newTestServer(t)
	req := map[string]any{
		"wdl": `
name: router
steps:
  - name: probe
    function: probe
  - name: pick
    type: switch
    choices:
      - condition: "$q > 720"
        steps:
          - name: hd
            function: hd
      - steps:
          - name: sd
            function: sd
`,
		"functions": map[string]any{
			"probe": map[string]any{"execSeconds": 0.05},
			"hd":    map[string]any{"execSeconds": 2.0},
			"sd":    map[string]any{"execSeconds": 0.1},
		},
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows", req, nil); code != http.StatusCreated {
		t.Fatalf("deploy status = %d", code)
	}
	invoke := func(q float64) invokeResponse {
		var stats invokeResponse
		code := doJSON(t, http.MethodPost, srv.URL+"/workflows/router/invoke",
			map[string]any{"n": 3, "args": map[string]any{"q": q}}, &stats)
		if code != 200 {
			t.Fatalf("invoke status = %d", code)
		}
		return stats
	}
	hd, sd := invoke(1080), invoke(480)
	if hd.MeanMs <= sd.MeanMs {
		t.Fatalf("hd mean %.0fms <= sd mean %.0fms; args not routed", hd.MeanMs, sd.MeanMs)
	}
}

func TestConcurrentRequestsSerialized(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			// Plain client calls here: test helpers may not t.Fatal from
			// goroutines.
			resp, err := http.Post(srv.URL+"/workflows/etl/invoke", "application/json",
				bytes.NewBufferString(`{"n":2}`))
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				done <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	var inv invokeResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke", map[string]any{"n": 2}, &inv); code != 200 {
		t.Fatalf("invoke status = %d", code)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every line must parse as Prometheus 0.0.4 exposition: a # HELP/# TYPE
	// comment or `name{labels} value` / `name value`.
	series := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	var samples int
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !series.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
	for _, want := range []string{
		`faasflow_invocations_total{workflow="etl",mode="WorkerSP",result="ok"}`,
		"# TYPE faasflow_invocation_seconds histogram",
		"faasflow_placements_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestWorkflowTraceEndpoint(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	var inv invokeResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke", map[string]any{"n": 1}, &inv); code != 200 {
		t.Fatalf("invoke status = %d", code)
	}

	var events []map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/etl/trace", nil, &events); code != 200 {
		t.Fatalf("trace status = %d", code)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	sawPhase := false
	for _, ev := range events {
		if ev["ph"] == "X" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Fatal("trace has no phase spans")
	}

	// Unknown workflow → 404.
	var errBody map[string]string
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/nope/trace", nil, &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown workflow trace status = %d", code)
	}
	if errBody["error"] == "" {
		t.Fatal("404 body has no error message")
	}
}

// newThrottledServer builds a gateway whose admission bucket holds exactly
// one token and refills too slowly (on the virtual clock) to matter: the
// first invoke is admitted, every later one is turned away.
func newThrottledServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Config{
		Workers:             3,
		FaaStore:            true,
		Seed:                1,
		AdmissionRatePerSec: 1e-9,
	}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestInvokeOverloadReturns429(t *testing.T) {
	srv := newThrottledServer(t)
	deployETL(t, srv)

	var stats invokeResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
		map[string]any{"n": 2}, &stats); code != 200 {
		t.Fatalf("first invoke status = %d, want 200", code)
	}

	resp, err := http.Post(srv.URL+"/workflows/etl/invoke", "application/json",
		bytes.NewBufferString(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second invoke status = %d, want 429", resp.StatusCode)
	}
	retry := resp.Header.Get("Retry-After")
	if retry == "" {
		t.Fatal("429 without Retry-After header")
	}
	if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integral seconds >= 1", retry)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "overloaded") {
		t.Fatalf("429 body = %v", body)
	}

	// The rejection is visible to scrapers: GET /metrics carries the
	// admission counter with decision="rejected".
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`faasflow_admission_total{workflow="etl",decision="admitted",reason="ok"} 1`,
		`faasflow_admission_total{workflow="etl",decision="rejected",reason="rate"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestInvokeWithoutAdmissionNever429s(t *testing.T) {
	srv := newTestServer(t)
	deployETL(t, srv)
	for i := 0; i < 3; i++ {
		if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/etl/invoke",
			map[string]any{"n": 1}, nil); code != 200 {
			t.Fatalf("invoke %d status = %d with admission disabled", i, code)
		}
	}
}

// TestJournalEndpoint deploys a benchmark durable, invokes it, and reads
// the committed step records back; a non-durable deploy must 404.
func TestJournalEndpoint(t *testing.T) {
	srv := newTestServer(t)
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows",
		map[string]any{"name": "dur", "benchmark": "IR", "durable": true}, nil); code != http.StatusCreated {
		t.Fatalf("durable deploy status = %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows",
		map[string]any{"name": "plain", "benchmark": "IR"}, nil); code != http.StatusCreated {
		t.Fatalf("plain deploy status = %d", code)
	}
	var empty struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/dur/journal", nil, &empty); code != http.StatusOK {
		t.Fatalf("journal before invoke status = %d", code)
	}
	if len(empty.Entries) != 0 {
		t.Fatalf("journal before invoke has %d entries", len(empty.Entries))
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows/dur/invoke",
		map[string]any{"n": 2}, nil); code != http.StatusOK {
		t.Fatalf("invoke status = %d", code)
	}
	var got struct {
		Stats struct {
			Journal struct {
				Committed int64 `json:"Committed"`
			}
		} `json:"stats"`
		Entries []struct {
			Workflow string   `json:"workflow"`
			Inv      int64    `json:"inv"`
			Step     int      `json:"step"`
			Outputs  []string `json:"outputs"`
		} `json:"entries"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/dur/journal", nil, &got); code != http.StatusOK {
		t.Fatalf("journal status = %d", code)
	}
	if len(got.Entries) == 0 || got.Stats.Journal.Committed == 0 {
		t.Fatalf("journal empty after invoke: %d entries, %d committed",
			len(got.Entries), got.Stats.Journal.Committed)
	}
	if got.Entries[0].Workflow != "IR" {
		t.Fatalf("entry workflow = %q", got.Entries[0].Workflow)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/plain/journal", nil, nil); code != http.StatusNotFound {
		t.Fatalf("non-durable journal status = %d, want 404", code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var info workflowInfo
	if code := doJSON(t, http.MethodPost, srv.URL+"/workflows",
		map[string]any{"benchmark": "IR"}, &info); code != http.StatusCreated {
		t.Fatalf("deploy status = %d", code)
	}
	var ex struct {
		Ranked []struct {
			Dim    string `json:"dim"`
			GainNs int64  `json:"gainNs"`
		} `json:"ranked"`
		Tolerance float64 `json:"tolerance"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/IR/explain?n=5", nil, &ex); code != http.StatusOK {
		t.Fatalf("explain status = %d", code)
	}
	if len(ex.Ranked) != 5 {
		t.Fatalf("ranked %d dimensions, want 5", len(ex.Ranked))
	}
	for i := 1; i < len(ex.Ranked); i++ {
		if ex.Ranked[i].GainNs > ex.Ranked[i-1].GainNs {
			t.Fatalf("ranking not descending: %+v", ex.Ranked)
		}
	}
	if ex.Tolerance <= 0 {
		t.Fatalf("tolerance = %v", ex.Tolerance)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/IR/explain?n=0", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("n=0 status = %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/IR/explain?n=10000", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized n status = %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/workflows/ghost/explain", nil, nil); code != http.StatusNotFound {
		t.Fatalf("ghost status = %d, want 404", code)
	}
}
