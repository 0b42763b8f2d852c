package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
)

// opHeader carries the op index of a traced request, so the handler span
// and the client round trip of one request share it.
const opHeader = "Bench-Op"

// gatewayHTTP: the HTTP control plane with IllegalRecognizer deployed,
// driven by one closed-loop client on one keep-alive connection, each
// request invoking one workflow. The only workload that runs the
// HTTP/JSON surface and an attached observer (collector and trace log);
// durable-failover runs the same workflow with the bus off. Its latency is
// the modeled workflow latency each response reports; the host cost of
// the HTTP path shows in throughput and in the traced gateway timings.
func gatewayHTTP(seed uint64, size int, tr *tracer) (*batch, error) {
	b := newBatch()
	var handlerNs atomic.Int64 // last request's handler time, for the transport split
	h := gateway.New(gateway.Config{FaaStore: true, Seed: seed}).Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
			if err != nil {
				op = -1
			}
			handlerNs.Store(int64(tr.end("ServeHTTP", op, t0, "gateway.handler_ms", time.Millisecond)))
		})
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	t0 := tr.now()
	status, _, err := post(client, srv.URL+"/workflows", `{"benchmark":"IR"}`, -1)
	tr.end("POST /workflows", -1, t0, "scheduler.deploy_ms", time.Millisecond)
	if err != nil {
		return nil, err
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("deploy IR: status %d", status)
	}
	invokeURL := srv.URL + "/workflows/IR/invoke"
	const body = `{"n":1}`
	for i := 0; i < 2; i++ { // warm-up: connection, cold containers
		if status, _, err := post(client, invokeURL, body, -1); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm-up invoke: status %d, err %v", status, err)
		}
	}
	obsBefore, err := obsEvents(client, srv.URL)
	if err != nil {
		return nil, err
	}

	var bad string
	b.beginWork()
	for i := 0; i < size; i++ {
		b.ops++
		t0 := time.Now()
		status, data, err := post(client, invokeURL, body, int64(i))
		lat := time.Since(t0)
		var out struct {
			Count int     `json:"count"`
			P50Ms float64 `json:"p50Ms"`
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(data, &out)
		}
		if err != nil || status != http.StatusOK || out.Count != 1 {
			b.failed++
			bad = fmt.Sprintf("status %d, count %d, err %v", status, out.Count, err)
			continue
		}
		b.good++
		b.lat = append(b.lat, out.P50Ms)
		if tr != nil {
			tr.end("POST invoke", int64(i), t0, "", 0)
			tr.sample("gateway.transport_ms", float64(lat-time.Duration(handlerNs.Load()))/float64(time.Millisecond))
		}
	}
	b.endWork()

	obsAfter, err := obsEvents(client, srv.URL)
	if err != nil {
		return nil, err
	}
	b.counts["obs.events"] = obsAfter - obsBefore
	if b.failed > 0 {
		return b, checkErr("every gateway response is 200 with count 1", "%d of %d failed, last: %s", b.failed, b.ops, bad)
	}
	return b, nil
}

// post sends one JSON POST and returns the status and the whole body.
func post(c *http.Client, url, body string, op int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// obsEvents scrapes GET /metrics and sums faasflow_obs_events_total over
// its kinds: the bus events the gateway's collector consumed.
func obsEvents(c *http.Client, base string) (float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "faasflow_obs_events_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}
