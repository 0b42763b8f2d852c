package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// liveGenome: the goroutine runtime executing the Genome(50) graph for
// real, one caller running it back to back with one handler slot per CPU.
// Each handler hashes its inputs with a 64 KiB buffer generated from the
// seed. Sink outputs must equal those of a one-slot reference run made
// during set-up. No simulator layer runs.
func liveGenome(seed uint64, size int, tr *tracer) (*batch, error) {
	b := newBatch()
	b.hostLat = true
	buf := make([]byte, 64<<10)
	rng := sim.NewRand(sim.Mix(seed, 6))
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
	g := workloads.Genome(50).Graph

	ref, err := live.New(g, digestHandlers(g, buf, nil, nil, nil), live.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		return nil, err
	}
	par := runtime.NumCPU()
	var busy, cur atomic.Int64 // handler ns in the current run; current op
	runner, err := live.New(g, digestHandlers(g, buf, tr, &busy, &cur), live.Options{Parallelism: par})
	if err != nil {
		return nil, err
	}

	b.beginWork()
	for i := 0; i < size; i++ {
		b.ops++
		busy.Store(0)
		cur.Store(int64(i))
		t0 := time.Now()
		got, err := runner.Run(context.Background())
		wall := time.Since(t0)
		if err != nil || !sameOutputs(got.Outputs, want.Outputs) {
			b.failed++
			continue
		}
		b.good++
		b.lat = append(b.lat, float64(wall)/float64(time.Millisecond))
		if tr != nil {
			tr.end("Runner.Run", int64(i), t0, "", 0)
			h := time.Duration(busy.Load())
			tr.sample("live.handler_busy_frac", float64(h)/float64(wall*time.Duration(par)))
			tr.sample("live.runner_ms", float64(wall-h/time.Duration(par))/float64(time.Millisecond))
		}
	}
	b.endWork()
	b.det["sinks"] = float64(len(want.Outputs))
	b.det["sink_digest"] = digestOf(want.Outputs)
	if b.failed > 0 {
		return b, checkErr("live sink outputs equal the reference digests", "%d of %d runs differed or failed", b.failed, b.ops)
	}
	return b, nil
}

// digestHandlers gives every task function a handler that SHA-256s its
// function name, replica, inputs and buf. With a tracer it adds each
// call's time to busy and records a span under op cur.
func digestHandlers(g *dag.Graph, buf []byte, tr *tracer, busy, cur *atomic.Int64) map[string]live.Handler {
	hs := map[string]live.Handler{}
	for _, n := range g.Nodes() {
		if n.Kind != dag.KindTask {
			continue
		}
		fn := n.Function
		spanName := "handler " + fn
		hs[fn] = func(_ context.Context, replica int, inputs []live.Input) ([]byte, error) {
			t0 := tr.now()
			h := sha256.New()
			h.Write([]byte(fn))
			var r [8]byte
			binary.LittleEndian.PutUint64(r[:], uint64(replica))
			h.Write(r[:])
			for _, in := range inputs {
				h.Write([]byte(in.From))
				h.Write(in.Data)
			}
			h.Write(buf)
			out := h.Sum(nil)
			if tr != nil {
				busy.Add(int64(tr.end(spanName, cur.Load(), t0, "", 0)))
			}
			return out, nil
		}
	}
	return hs
}

func sameOutputs(got, want map[string][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			return false
		}
	}
	return true
}

// digestOf folds a run's outputs into one number for the same-seed check.
func digestOf(outs map[string][]byte) float64 {
	names := make([]string, 0, len(outs))
	for k := range outs {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, k := range names {
		h.Write([]byte(k))
		h.Write(outs[k])
	}
	return float64(h.Sum64() >> 11) // exact in a float64
}
