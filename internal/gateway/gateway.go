// Package gateway exposes the FaaSFlow cluster as an HTTP service — the
// role the artifact's proxy plays: users upload workflow definitions, send
// invocations, and read placement and latency statistics over REST.
//
//	POST /workflows            {"name", "wdl", "functions": {...}}  deploy
//	GET  /workflows            list deployed workflows
//	GET  /workflows/{name}     placement, groups, locality
//	POST /workflows/{name}/invoke  {"n", "ratePerMinute", "args"}   run
//	                           (429 + Retry-After when admission rejects;
//	                           503 + Retry-After mid federation handoff;
//	                           the "Tenant" header attributes the session
//	                           to a tenant for weighted-fair admission and
//	                           queueing — see docs/TENANCY.md)
//	GET  /workflows/{name}/journal committed step records (durable deploys)
//	GET  /workflows/{name}/federation  lease/epoch/handoff counters
//	POST /workflows/{name}/federation  {"op": kill|restart|stall|advance}
//	                           chaos and clock control (federated deploys)
//	GET  /workflows/{name}/fastpath fast-path options and counters
//	                           (fast-path deploys)
//	GET  /workflows/{name}/trace   Chrome trace of observed invocations
//	GET  /workflows/{name}/bottlenecks  critical path joined with saturation
//	GET  /workflows/{name}/explain[?n=N]  causal what-if profile, ranked
//	GET  /benchmarks           the built-in paper workloads
//	GET  /cluster              cumulative utilization counters
//	GET  /tenants              per-tenant admission + queue breakdown
//	GET  /utilization          per-resource occupancy timeline summaries
//	GET  /metrics              Prometheus text exposition
//
// The simulation is single-threaded, so the handler serializes requests;
// for the simulated substrate this is a modeling property, not a
// bottleneck (a full evaluation sweep takes seconds).
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/faasflow"
)

// Server is the HTTP control plane over one simulated cluster.
type Server struct {
	mu      sync.Mutex
	cluster *faasflow.Cluster
	mode    faasflow.Mode
	apps    map[string]*faasflow.App
	wfs     map[string]*faasflow.Workflow
	obs     *faasflow.Observer
}

// Config selects the cluster the server manages.
type Config struct {
	Workers            int
	StorageBandwidthMB float64
	FaaStore           bool
	MasterSP           bool // run the HyperFlow-serverless baseline pattern
	Seed               uint64
	// Admission installs front-door overload control: invoke requests past
	// the rate limit or concurrency cap get HTTP 429 with a Retry-After
	// hint instead of queueing. Zero limits admit everything.
	AdmissionRatePerSec    float64
	AdmissionBurst         float64
	AdmissionMaxConcurrent int
	// AdmissionTenants layers per-tenant weighted buckets and caps under
	// the global limits and installs the weights for weighted-fair Acquire
	// queueing. Requests name their tenant with the "Tenant" header on the
	// invoke endpoint; GET /tenants serves the per-tenant breakdown.
	AdmissionTenants map[string]faasflow.TenantConfig
}

func (c Config) admissionEnabled() bool {
	return c.AdmissionRatePerSec > 0 || c.AdmissionMaxConcurrent > 0 || len(c.AdmissionTenants) > 0
}

// New builds a server with a fresh cluster.
func New(cfg Config) *Server {
	var opts []faasflow.Option
	if cfg.Workers > 0 {
		opts = append(opts, faasflow.WithWorkers(cfg.Workers))
	}
	if cfg.StorageBandwidthMB > 0 {
		opts = append(opts, faasflow.WithStorageBandwidthMBps(cfg.StorageBandwidthMB))
	}
	opts = append(opts, faasflow.WithFaaStore(cfg.FaaStore), faasflow.WithSeed(cfg.Seed))
	mode := faasflow.WorkerSP
	if cfg.MasterSP {
		mode = faasflow.MasterSP
	}
	cluster := faasflow.NewCluster(opts...)
	if cfg.admissionEnabled() {
		// Config fields are non-negative limits; SetAdmission only errors on
		// negatives, so this cannot fail here — but keep the check honest.
		if err := cluster.SetAdmission(faasflow.AdmissionConfig{
			RatePerSec:    cfg.AdmissionRatePerSec,
			Burst:         cfg.AdmissionBurst,
			MaxConcurrent: cfg.AdmissionMaxConcurrent,
			Tenants:       cfg.AdmissionTenants,
		}); err != nil {
			panic(fmt.Sprintf("gateway: invalid admission config: %v", err))
		}
	}
	observer := faasflow.NewObserver()
	cluster.AttachObserver(observer)
	return &Server{
		cluster: cluster,
		mode:    mode,
		apps:    map[string]*faasflow.App{},
		wfs:     map[string]*faasflow.Workflow{},
		obs:     observer,
	}
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/workflows", s.handleWorkflows)
	mux.HandleFunc("/workflows/", s.handleWorkflow)
	mux.HandleFunc("/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/tenants", s.handleTenants)
	mux.HandleFunc("/utilization", s.handleUtilization)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		status = he.status
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// deployRequest is the POST /workflows body.
type deployRequest struct {
	Name string `json:"name"`
	// WDL is the workflow definition (YAML). Alternatively Benchmark names
	// a built-in paper workload.
	WDL       string `json:"wdl,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	// Functions maps function name -> cost model (required with WDL).
	Functions map[string]struct {
		ExecSeconds float64 `json:"execSeconds"`
		MemPeak     int64   `json:"memPeak,omitempty"`
	} `json:"functions,omitempty"`
	// Durable deploys with a workflow journal (and recovery enabled), so
	// GET /workflows/{name}/journal serves the committed step records.
	Durable bool `json:"durable,omitempty"`
	// ReplicationFactor, with Durable, writes FaaStore outputs to this many
	// worker shards (cluster-wide store property).
	ReplicationFactor int `json:"replicationFactor,omitempty"`
	// FastPath enables the data-plane fast path for this deployment; GET
	// /workflows/{name}/fastpath serves its counters.
	FastPath struct {
		DirectPassing bool `json:"directPassing,omitempty"`
		Prewarm       bool `json:"prewarm,omitempty"`
		Memoize       bool `json:"memoize,omitempty"`
	} `json:"fastPath,omitempty"`
	// Federated deploys the workflow behind a sharded engine federation
	// (lease-based failover with journal handoff); every member is durable.
	// Takes precedence over Durable.
	Federated bool `json:"federated,omitempty"`
	// Federation tunes the federated deployment; zero values take the
	// library defaults (3 members, 16 shards, 2s lease TTL, 250ms handoff).
	Federation struct {
		Members        int    `json:"members,omitempty"`
		Shards         int    `json:"shards,omitempty"`
		LeaseTTLMs     int    `json:"leaseTTLMs,omitempty"`
		RenewEveryMs   int    `json:"renewEveryMs,omitempty"`
		CheckEveryMs   int    `json:"checkEveryMs,omitempty"`
		HandoffDelayMs int    `json:"handoffDelayMs,omitempty"`
		Seed           uint64 `json:"seed,omitempty"`
	} `json:"federation,omitempty"`
}

// durability is the journal configuration of a durable or federated
// deploy, nil otherwise.
func (r *deployRequest) durability() *faasflow.Durability {
	if !r.Durable && !r.Federated {
		return nil
	}
	return &faasflow.Durability{ReplicationFactor: r.ReplicationFactor}
}

// federation is the federation configuration of a federated deploy, nil
// otherwise.
func (r *deployRequest) federation() *faasflow.FederationOptions {
	if !r.Federated {
		return nil
	}
	fc := r.Federation
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	return &faasflow.FederationOptions{
		Members:      fc.Members,
		Shards:       fc.Shards,
		LeaseTTL:     ms(fc.LeaseTTLMs),
		RenewEvery:   ms(fc.RenewEveryMs),
		CheckEvery:   ms(fc.CheckEveryMs),
		HandoffDelay: ms(fc.HandoffDelayMs),
		Seed:         fc.Seed,
	}
}

// workflowInfo is the GET /workflows/{name} response.
type workflowInfo struct {
	Name             string            `json:"name"`
	Tasks            int               `json:"tasks"`
	TotalBytes       int64             `json:"totalBytes"`
	Groups           int               `json:"groups"`
	LocalizedPercent float64           `json:"localizedPercent"`
	Placement        map[string]string `json:"placement"`
}

func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		names := make([]string, 0, len(s.apps))
		for name := range s.apps {
			names = append(names, name)
		}
		sort.Strings(names)
		writeJSON(w, http.StatusOK, names)
	case http.MethodPost:
		var req deployRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			fail(w, &httpError{http.StatusBadRequest, "invalid JSON: " + err.Error()})
			return
		}
		info, err := s.deploy(req)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	default:
		fail(w, &httpError{http.StatusMethodNotAllowed, "use GET or POST"})
	}
}

func (s *Server) deploy(req deployRequest) (*workflowInfo, error) {
	var wf *faasflow.Workflow
	switch {
	case req.Benchmark != "":
		wf = faasflow.Benchmark(req.Benchmark)
		if wf == nil {
			return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown benchmark %q", req.Benchmark)}
		}
	case req.WDL != "":
		fns := map[string]faasflow.FunctionSpec{}
		for name, f := range req.Functions {
			fns[name] = faasflow.FunctionSpec{ExecSeconds: f.ExecSeconds, MemPeak: f.MemPeak}
		}
		var err error
		wf, err = faasflow.WorkflowFromWDL(req.WDL, fns)
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, err.Error()}
		}
	default:
		return nil, &httpError{http.StatusBadRequest, "provide wdl or benchmark"}
	}
	name := req.Name
	if name == "" {
		name = wf.Name()
	}
	if _, dup := s.apps[name]; dup {
		return nil, &httpError{http.StatusConflict, fmt.Sprintf("workflow %q already deployed", name)}
	}
	app, err := s.cluster.Deploy(wf, faasflow.DeployOptions{
		Mode: s.mode,
		FastPath: faasflow.FastPath{
			DirectPassing: req.FastPath.DirectPassing,
			Prewarm:       req.FastPath.Prewarm,
			Memoize:       req.FastPath.Memoize,
		},
		Durability: req.durability(),
		Federation: req.federation(),
	})
	if err != nil {
		return nil, &httpError{http.StatusUnprocessableEntity, err.Error()}
	}
	s.apps[name] = app
	s.wfs[name] = wf
	return s.info(name), nil
}

func (s *Server) info(name string) *workflowInfo {
	app, wf := s.apps[name], s.wfs[name]
	return &workflowInfo{
		Name:             name,
		Tasks:            wf.Tasks(),
		TotalBytes:       wf.TotalBytes(),
		Groups:           app.Groups(),
		LocalizedPercent: app.LocalizedFraction() * 100,
		Placement:        app.Placement(),
	}
}

// invokeRequest is the POST /workflows/{name}/invoke body.
type invokeRequest struct {
	N             int            `json:"n"`
	RatePerMinute float64        `json:"ratePerMinute,omitempty"` // 0 = closed loop
	Args          map[string]any `json:"args,omitempty"`
}

// invokeResponse reports run statistics.
type invokeResponse struct {
	Count       int     `json:"count"`
	MeanMs      float64 `json:"meanMs"`
	P50Ms       float64 `json:"p50Ms"`
	P99Ms       float64 `json:"p99Ms"`
	MaxMs       float64 `json:"maxMs"`
	TimeoutRate float64 `json:"timeoutRate"`
}

func (s *Server) handleWorkflow(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rest := strings.TrimPrefix(r.URL.Path, "/workflows/")
	name, action, _ := strings.Cut(rest, "/")
	app, ok := s.apps[name]
	if !ok {
		fail(w, &httpError{http.StatusNotFound, fmt.Sprintf("workflow %q not deployed", name)})
		return
	}
	switch {
	case action == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.info(name))
	case action == "invoke" && r.Method == http.MethodPost:
		var req invokeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			fail(w, &httpError{http.StatusBadRequest, "invalid JSON: " + err.Error()})
			return
		}
		if req.N <= 0 {
			req.N = 1
		}
		if req.N > 100000 {
			fail(w, &httpError{http.StatusBadRequest, "n too large"})
			return
		}
		// Admission gates the HTTP request as one workflow session: rejected
		// requests get 429 + Retry-After without touching the simulation.
		// The Tenant header attributes the session to a tenant, gating it on
		// the tenant's weighted slice of the limits as well.
		tenant := r.Header.Get("Tenant")
		var release func()
		var err error
		if tenant != "" {
			release, err = s.cluster.AdmitTenant(name, tenant)
		} else {
			release, err = s.cluster.Admit(name)
		}
		if err != nil {
			var oe *faasflow.OverloadError
			if errors.As(err, &oe) {
				w.Header().Set("Retry-After", retryAfterSeconds(oe.RetryAfter))
				fail(w, &httpError{http.StatusTooManyRequests, oe.Error()})
				return
			}
			fail(w, err)
			return
		}
		defer release()
		// Federation handoff gates the request the same way admission does:
		// a shard claimed from an expired member rejects invocations until
		// its journal replay window closes, so requests arriving mid-handoff
		// get 503 + Retry-After instead of racing the replay.
		if wait, pending := app.HandoffPending(); pending {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			fail(w, &httpError{http.StatusServiceUnavailable,
				fmt.Sprintf("federation handoff in progress, retry after %v", wait)})
			return
		}
		if app.Federated() && (req.RatePerMinute > 0 || req.Args != nil) {
			fail(w, &httpError{http.StatusBadRequest,
				"federated invoke supports closed-loop runs only"})
			return
		}
		// Plain runs take one warm-up pass; federated runs take none.
		// Open-loop runs keep tenant attribution at the admission layer
		// only; the label and arguments ride on closed-loop runs, plain or
		// federated, which then skip the warm-up.
		var opts faasflow.InvokeOptions
		if req.RatePerMinute == 0 {
			opts = faasflow.InvokeOptions{Args: req.Args, Tenant: tenant}
		}
		warmup := 1
		if app.Federated() || opts.Args != nil || opts.Tenant != "" {
			warmup = 0
		}
		stats, err := app.Run(faasflow.RunSpec{N: req.N, PerMinute: req.RatePerMinute, Invoke: opts, Warmup: warmup})
		if err != nil {
			fail(w, &httpError{http.StatusInternalServerError, err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, invokeResponse{
			Count:       stats.Count,
			MeanMs:      ms(stats.Mean),
			P50Ms:       ms(stats.P50),
			P99Ms:       ms(stats.P99),
			MaxMs:       ms(stats.Max),
			TimeoutRate: stats.Timeouts,
		})
	case action == "journal" && r.Method == http.MethodGet:
		if !app.Durable() {
			fail(w, &httpError{http.StatusNotFound,
				fmt.Sprintf("workflow %q was not deployed durable", name)})
			return
		}
		entries := app.JournalEntries()
		if entries == nil {
			entries = []faasflow.JournalEntry{}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"stats":   app.DurableStats(),
			"entries": entries,
		})
	case action == "federation" && r.Method == http.MethodGet:
		if !app.Federated() {
			fail(w, &httpError{http.StatusNotFound,
				fmt.Sprintf("workflow %q was not deployed federated", name)})
			return
		}
		exhausted := app.ExhaustionFailures()
		if exhausted == nil {
			exhausted = []faasflow.ExhaustionRecord{}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"members":   app.FederationMembers(),
			"stats":     app.FederationStats(),
			"exhausted": exhausted,
		})
	case action == "federation" && r.Method == http.MethodPost:
		if !app.Federated() {
			fail(w, &httpError{http.StatusNotFound,
				fmt.Sprintf("workflow %q was not deployed federated", name)})
			return
		}
		var req fedActionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			fail(w, &httpError{http.StatusBadRequest, "invalid JSON: " + err.Error()})
			return
		}
		if err := s.fedAction(app, req); err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"stats": app.FederationStats()})
	case action == "fastpath" && r.Method == http.MethodGet:
		if !app.FastPath().Enabled() {
			fail(w, &httpError{http.StatusNotFound,
				fmt.Sprintf("workflow %q was not deployed with the fast path", name)})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"options": app.FastPath(),
			"stats":   app.FastPathStats(),
			"direct":  s.cluster.DirectPassingStats(),
		})
	case action == "trace" && r.Method == http.MethodGet:
		data, err := s.obs.WorkflowTrace(name)
		if err != nil {
			fail(w, &httpError{http.StatusNotFound, err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	case action == "explain" && r.Method == http.MethodGet:
		// Causal what-if profile: re-simulates the workflow's scenario with
		// each cost dimension virtually scaled and ranks them by measured
		// gain. Counterfactuals run on fresh testbed replicas, so the live
		// deployment is untouched; n is capped because each of the ~20
		// counterfactual runs executes n invocations inline.
		n := 20
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed <= 0 {
				fail(w, &httpError{http.StatusBadRequest, "invalid n"})
				return
			}
			n = parsed
		}
		if n > 200 {
			fail(w, &httpError{http.StatusBadRequest, "n too large (max 200 per counterfactual run)"})
			return
		}
		ex, err := app.Explain(n)
		if err != nil {
			fail(w, &httpError{http.StatusInternalServerError, err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, ex)
	case action == "bottlenecks" && r.Method == http.MethodGet:
		var out []faasflow.BottleneckSummary
		for _, b := range s.obs.Bottlenecks() {
			if b.Workflow == name {
				out = append(out, b)
			}
		}
		if len(out) == 0 {
			fail(w, &httpError{http.StatusNotFound,
				fmt.Sprintf("no completed invocations observed for workflow %q", name)})
			return
		}
		writeJSON(w, http.StatusOK, out)
	default:
		fail(w, &httpError{http.StatusMethodNotAllowed, "unknown action"})
	}
}

// fedActionRequest is the POST /workflows/{name}/federation body: a chaos
// or clock-control op against a federated deployment.
type fedActionRequest struct {
	// Op is one of kill, restart, stall (member required; stall also needs
	// durationMs) or advance (advanceMs required) — advance runs the
	// simulation clock forward so lease expiries and handoffs progress
	// between HTTP requests.
	Op         string `json:"op"`
	Member     string `json:"member,omitempty"`
	DurationMs int    `json:"durationMs,omitempty"`
	AdvanceMs  int    `json:"advanceMs,omitempty"`
}

func (s *Server) fedAction(app *faasflow.App, req fedActionRequest) error {
	var err error
	switch req.Op {
	case "kill":
		err = app.KillFederationMember(req.Member)
	case "restart":
		err = app.RestartFederationMember(req.Member)
	case "stall":
		if req.DurationMs <= 0 {
			return &httpError{http.StatusBadRequest, "stall needs durationMs > 0"}
		}
		err = app.StallFederationMember(req.Member, time.Duration(req.DurationMs)*time.Millisecond)
	case "advance":
		if req.AdvanceMs <= 0 {
			return &httpError{http.StatusBadRequest, "advance needs advanceMs > 0"}
		}
		s.cluster.Advance(time.Duration(req.AdvanceMs) * time.Millisecond)
	default:
		return &httpError{http.StatusBadRequest,
			fmt.Sprintf("unknown op %q (use kill, restart, stall, or advance)", req.Op)}
	}
	if err != nil {
		return &httpError{http.StatusBadRequest, err.Error()}
	}
	return nil
}

// handleMetrics serves the Prometheus text exposition of everything the
// attached observer has collected.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		fail(w, &httpError{http.StatusMethodNotAllowed, "use GET"})
		return
	}
	s.mu.Lock()
	text := s.obs.PrometheusText()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(text))
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		fail(w, &httpError{http.StatusMethodNotAllowed, "use GET"})
		return
	}
	type bench struct {
		Name  string `json:"name"`
		Tasks int    `json:"tasks"`
	}
	var out []bench
	for _, wf := range faasflow.Benchmarks() {
		out = append(out, bench{Name: wf.Name(), Tasks: wf.Tasks()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		fail(w, &httpError{http.StatusMethodNotAllowed, "use GET"})
		return
	}
	s.mu.Lock()
	u := s.cluster.Utilization()
	// Failure counters aggregate across every deployed app: together with
	// the fault metrics on /metrics they are the gateway's view of how much
	// work the recovery layer re-did.
	var fs faasflow.FailureStats
	exhausted := []faasflow.ExhaustionRecord{}
	names := make([]string, 0, len(s.apps))
	for name := range s.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := s.apps[name].FailureStats()
		fs.Timeouts += st.Timeouts
		fs.Reissues += st.Reissues
		fs.Replacements += st.Replacements
		fs.FailedInvocations += st.FailedInvocations
		fs.ReissuesExhausted += st.ReissuesExhausted
		exhausted = append(exhausted, st.Exhausted...)
	}
	tenantQueues := s.cluster.TenantQueueStats()
	if tenantQueues == nil {
		tenantQueues = []faasflow.TenantQueueStats{}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"containers":     u.Containers,
		"coldStarts":     u.ColdStarts,
		"warmReuses":     u.WarmReuses,
		"cpuBusyMs":      ms(u.CPUBusy),
		"networkBytes":   u.NetworkBytes,
		"storeLocalHits": u.StoreLocalHits,
		"storeRemoteOps": u.StoreRemoteOps,
		// tenants carries the per-tenant Acquire-queue breakdown: how each
		// tenant's requests fared at every node's weighted-fair queue.
		"tenants": tenantQueues,
		"failures": map[string]int64{
			"timeouts":          fs.Timeouts,
			"reissues":          fs.Reissues,
			"replacements":      fs.Replacements,
			"failedInvocations": fs.FailedInvocations,
			"reissuesExhausted": fs.ReissuesExhausted,
		},
		// exhaustedSteps carries the typed record for every step that burned
		// its whole re-issue budget: workflow, invocation, step, attempts.
		"exhaustedSteps": exhausted,
	})
}

// handleTenants serves the per-tenant view: admission counters (weights,
// effective limits, decisions, live occupancy) joined with each tenant's
// Acquire-queue counters across the worker nodes.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		fail(w, &httpError{http.StatusMethodNotAllowed, "use GET"})
		return
	}
	s.mu.Lock()
	admission := s.cluster.TenantAdmissionStats()
	queues := s.cluster.TenantQueueStats()
	s.mu.Unlock()
	if admission == nil {
		admission = []faasflow.TenantAdmissionStats{}
	}
	if queues == nil {
		queues = []faasflow.TenantQueueStats{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"admission": admission,
		"queues":    queues,
	})
}

// handleUtilization serves the observer's per-resource occupancy timeline
// summaries (distinct from /cluster's cumulative counters).
func (s *Server) handleUtilization(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		fail(w, &httpError{http.StatusMethodNotAllowed, "use GET"})
		return
	}
	s.mu.Lock()
	u := s.obs.Utilization()
	s.mu.Unlock()
	if u == nil {
		u = []faasflow.ResourceUtilization{}
	}
	writeJSON(w, http.StatusOK, u)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (RFC 7231 allows only integral seconds).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
