package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The four simulator workloads run in modeled time on the paper's testbed
// (7 workers and 1 master, 100 MB/s worker links, 50 MB/s storage link
// unless stated). Their loops are single-threaded by construction. An
// open-loop arrival is scheduled at its due instant, so its latency counts
// from when it was due and the generator is never late.

// simCounters reads the simulator-side layer counters of a testbed.
// Node.Stats settles CPU accounting and drops pending CPU finish events,
// so it is only called while no task runs: after warm-up or after the
// simulation drained.
func simCounters(tb *harness.Testbed, engines []*engine.Deployment) map[string]float64 {
	fs := tb.Fabric.Stats()
	rs := tb.Remote.Stats()
	c := map[string]float64{
		"sim.events":         float64(tb.Env.Fired()),
		"network.resolves":   float64(tb.Fabric.Resolves()),
		"network.flows":      float64(fs.TotalFlows),
		"network.bytes":      float64(fs.TotalBytes),
		"store.remote_bytes": float64(rs.BytesPut + rs.BytesGot),
		"store.local_hits":   float64(tb.Runtime.Store.LocalHits()),
		"store.local_misses": float64(tb.Runtime.Store.LocalMisses()),
	}
	for _, w := range tb.Workers {
		s := tb.Runtime.Nodes[w].Stats()
		c["cluster.queued_waits"] += float64(s.QueuedWaits)
		c["cluster.shed"] += float64(s.Shed)
		c["cluster.deadline_aborts"] += float64(s.DeadlineAborts)
		c["cluster.cold_starts"] += float64(s.ColdStarts)
	}
	for _, d := range engines {
		ms := d.MasterStats()
		c["engine.events"] += float64(ms.Events)
		c["engine.master_busy_s"] += ms.Busy.Seconds()
		for _, w := range tb.Workers {
			c["engine.events"] += float64(d.WorkerStats(w).Events)
		}
		ds := d.DurableStatsSnapshot()
		c["engine.replay_skips"] += float64(ds.ReplaySkips)
		c["engine.redispatched"] += float64(ds.Redispatched)
	}
	return c
}

// simOps tracks the completions of one simulator batch.
type simOps struct {
	b         *batch
	tb        *harness.Testbed
	engines   []*engine.Deployment
	before    map[string]float64
	from      sim.Time // modeled start of the timed ops
	completed int64
	last      sim.Time // modeled instant of the last completion
	peak      int      // most events queued at a completion, tombstones included
}

// begin ends set-up: it snapshots the counters and starts the clock.
func begin(b *batch, tb *harness.Testbed, engines ...*engine.Deployment) *simOps {
	s := &simOps{b: b, tb: tb, engines: engines, before: simCounters(tb, engines)}
	b.beginWork()
	s.from = tb.Env.Now()
	return s
}

// done records one finished invocation that was due at due and reports
// whether it succeeded.
func (s *simOps) done(due sim.Time, r engine.Result) bool {
	env := s.tb.Env
	s.completed++
	s.last = env.Now()
	if p := env.Pending(); p > s.peak {
		s.peak = p
	}
	if r.Failed {
		return false
	}
	s.b.good++
	s.b.lat = append(s.b.lat, float64(env.Now()-due)/float64(time.Millisecond))
	return true
}

// end stops the clock after the simulation drained and stores the counter
// deltas over the timed ops.
func (s *simOps) end() {
	s.b.endWork()
	for k, v := range simCounters(s.tb, s.engines) {
		s.b.counts[k] = v - s.before[k]
	}
	s.b.counts["sim.queue_peak"] = float64(s.peak)
	s.b.counts["engine.modeled_span_s"] = (s.last - s.from).Seconds()
}

func deploy(tb *harness.Testbed, bench *workloads.Benchmark, opts engine.Options, tr *tracer) (*harness.Deployment, error) {
	t0 := tr.now()
	d, err := tb.Deploy(bench, opts)
	tr.end("Deploy", -1, t0, "scheduler.deploy_ms", time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", bench.Name, err)
	}
	return d, nil
}

func runSim(env *sim.Env, tr *tracer) {
	t0 := tr.now()
	env.Run()
	tr.end("Env.Run", -1, t0, "", 0)
}

// warmUp runs n closed-loop invocations and stops the clock as the last
// one finishes, so the timed ops start on warm containers. (Draining the
// queue would also run the keep-alive evictions.)
func warmUp(env *sim.Env, eng *engine.Deployment, n int) error {
	done := 0
	var next func()
	next = func() {
		eng.Invoke(func(engine.Result) {
			if done++; done < n {
				next()
			}
		})
	}
	next()
	for done < n && env.Step() {
	}
	if done < n {
		return fmt.Errorf("warm-up finished %d of %d invocations", done, n)
	}
	return nil
}

// poisson returns n arrival offsets with exponential gaps at rate perSec.
func poisson(rng *sim.Rand, n int, perSec float64) []time.Duration {
	at := make([]time.Duration, n)
	var t float64
	for i := range at {
		t += rng.ExpFloat64() / perSec
		at[i] = time.Duration(t * float64(time.Second))
	}
	return at
}

// openLoop fires op i at from+at[i]. Each arrival schedules the next, so
// the event queue holds one pending arrival, as a generator process would.
func openLoop(env *sim.Env, from sim.Time, at []time.Duration, fire func(i int, due sim.Time)) {
	var arrive func(i int)
	arrive = func(i int) {
		due := from + sim.Time(at[i])
		env.At(due, func() {
			if i+1 < len(at) {
				arrive(i + 1)
			}
			fire(i, due)
		})
	}
	if len(at) > 0 {
		arrive(0)
	}
}

// checkAccounted fails a batch whose ops do not all end in an outcome.
func checkAccounted(offered, completed, refused int64) error {
	if completed+refused != offered {
		return checkErr("every op accounted for", "%d completed + %d refused != %d offered", completed, refused, offered)
	}
	return nil
}

// genControl: Genome(50) under WorkerSP with no data movement (the
// paper's §5.2 method), one closed-loop client. Only the sim kernel,
// WorkerSP dispatch and single-tenant cluster Acquire work; the network
// solver never runs. The client numbers its invocations from a
// seed-chosen base; task execution times vary by ±15% with the
// invocation ID, so the ID sequence is this workload's generated input.
func genControl(seed uint64, size int, tr *tracer) (*batch, error) {
	b := newBatch()
	firstID := int64(sim.Mix(seed, 1) >> 24)
	tb := harness.NewTestbed(harness.ClusterSpec{Seed: seed})
	d, err := deploy(tb, workloads.Genome(50), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataNone}, tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(tb.Env, d.Engine, 2); err != nil {
		return nil, err
	}
	s := begin(b, tb, d.Engine)
	var next func()
	next = func() {
		i := b.ops
		b.ops++
		due := tb.Env.Now()
		t0 := tr.now()
		d.Engine.InvokeWithID(firstID+i, engine.InvokeOptions{}, func(r engine.Result) {
			if !s.done(due, r) {
				b.failed++
			}
			if b.ops < int64(size) {
				next()
			}
		})
		tr.end("Invoke", i, t0, "", 0)
	}
	next()
	runSim(tb.Env, tr)
	s.end()
	return b, checkAccounted(b.ops, s.completed, 0)
}

// genStorageBound: Genome(50) under MasterSP with FaaStore off (the
// HyperFlow-serverless data path) behind the 50 MB/s storage link, fed
// by Poisson arrivals at 6 per minute (the Fig 13 operating point). Every
// payload crosses the master link, so the max-min solver dominates.
func genStorageBound(seed uint64, size int, tr *tracer) (*batch, error) {
	b := newBatch()
	at := poisson(sim.NewRand(sim.Mix(seed, 2)), size, 6.0/60)
	tb := harness.NewTestbed(harness.ClusterSpec{Seed: seed})
	d, err := deploy(tb, workloads.Genome(50), engine.Options{Mode: engine.ModeMasterSP, Data: engine.DataStore}, tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(tb.Env, d.Engine, 2); err != nil {
		return nil, err
	}
	s := begin(b, tb, d.Engine)
	openLoop(tb.Env, s.from, at, func(i int, due sim.Time) {
		b.ops++
		t0 := tr.now()
		d.Engine.Invoke(func(r engine.Result) {
			if !s.done(due, r) {
				b.failed++
			}
		})
		tr.end("Invoke", int64(i), t0, "", 0)
	})
	runSim(tb.Env, tr)
	s.end()
	return b, checkAccounted(b.ops, s.completed, 0)
}

// Tenants of tenant-overload and their weights; noisy sends half the
// arrivals, the other three share the rest uniformly.
var (
	tenantWeights = map[string]float64{"gold": 4, "silver": 2, "bronze": 1, "noisy": 1}
	wellBehaved   = []string{"gold", "silver", "bronze"}
)

// tenantOverload: WordCount behind weighted per-tenant admission (3/s
// global, burst 2, 48 in flight) on workers with 8-deep Acquire queues,
// offered Poisson arrivals at 6/s, twice the admitted rate, with an 8 s
// deadline. The only workload where Acquire takes the contended
// weighted-fair path and sheds, and where deadlines withdraw queued
// acquisitions. Refusals and sheds are the expected outcomes of overload
// control, not failures.
func tenantOverload(seed uint64, size int, tr *tracer) (*batch, error) {
	b := newBatch()
	rng := sim.NewRand(sim.Mix(seed, 3))
	at := poisson(rng, size, 6)
	who := make([]string, size)
	for i := range who {
		if rng.Float64() < 0.5 {
			who[i] = "noisy"
		} else {
			who[i] = wellBehaved[rng.Intn(len(wellBehaved))]
		}
	}
	cfg := cluster.DefaultConfig()
	cfg.MaxQueueDepth = 8
	tb := harness.NewTestbed(harness.ClusterSpec{FaaStore: true, Cluster: cfg, Seed: seed})
	tb.SetTenantWeights(tenantWeights)
	bench := workloads.WordCount()
	d, err := deploy(tb, bench, engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore}, tr)
	if err != nil {
		return nil, err
	}
	tenants := map[string]admission.TenantConfig{}
	for t, w := range tenantWeights {
		tenants[t] = admission.TenantConfig{Weight: w}
	}
	ctl, err := admission.New(tb.Env, admission.Config{RatePerSec: 3, Burst: 2, MaxConcurrent: 48, Tenants: tenants})
	if err != nil {
		return nil, err
	}
	b.offered, b.served = map[string]float64{}, map[string]float64{}
	var refused int64
	s := begin(b, tb, d.Engine)
	openLoop(tb.Env, s.from, at, func(i int, due sim.Time) {
		t := who[i]
		b.offered[t]++
		b.ops++
		t0 := tr.now()
		release, err := ctl.AdmitTenant(bench.Name, t)
		tr.end("AdmitTenant", int64(i), t0, "admission.admit_us", time.Microsecond)
		if err != nil {
			refused++
			if !errors.Is(err, admission.ErrOverloaded) {
				b.failed++
			}
			return
		}
		t0 = tr.now()
		d.Engine.InvokeOpts(engine.InvokeOptions{Deadline: due + sim.Time(8*time.Second), Tenant: t}, func(r engine.Result) {
			release()
			if s.done(due, r) {
				b.served[t]++
			}
		})
		tr.end("Invoke", int64(i), t0, "", 0)
	})
	runSim(tb.Env, tr)
	s.end()
	b.counts["admission.decisions"] = float64(b.ops)
	b.counts["admission.rejected"] = float64(refused)
	b.counts["admission.live_at_end"] = float64(ctl.Live())
	if err := checkAccounted(b.ops, s.completed, refused); err != nil {
		return b, err
	}
	if ctl.Live() != 0 {
		return b, checkErr("admission slots released", "Live() = %d after the drain", ctl.Live())
	}
	return b, nil
}

// fairShareMin is the minimum over the well-behaved tenants of their
// successes over min(offered, weight share × all successes); 1 when no
// tenant was offered anything.
func fairShareMin(offered, served map[string]float64) float64 {
	total, sumW := 0.0, 0.0
	for _, n := range served {
		total += n
	}
	for _, w := range tenantWeights {
		sumW += w
	}
	worst := math.Inf(1)
	for _, t := range wellBehaved {
		target := math.Min(offered[t], tenantWeights[t]/sumW*total)
		if target > 0 {
			worst = math.Min(worst, served[t]/target)
		}
	}
	if math.IsInf(worst, 1) {
		return 1
	}
	return worst
}

// durableFailover: IllegalRecognizer on three federated engine replicas,
// each with its own journal, fed one invocation every 400 ms while one
// member at a time is killed for 2 s every 20 s. Journal group commit,
// leases, claims, fencing, handoff and replay work only here. Arrivals
// that hit a handoff window retry after the RetryAfter they are given,
// and their latency still counts from the first attempt.
func durableFailover(seed uint64, size int, tr *tracer) (*batch, error) {
	const (
		interval = 400 * time.Millisecond
		killGap  = 20 * time.Second
		downFor  = 2 * time.Second
	)
	b := newBatch()
	rng := sim.NewRand(sim.Mix(seed, 4))
	at := make([]time.Duration, size)
	for i := range at {
		at[i] = time.Duration(i) * interval
	}
	span := time.Duration(size) * interval
	firstKill := time.Duration(rng.Float64() * float64(killGap))
	firstVictim := rng.Intn(3)

	tb := harness.NewTestbed(harness.ClusterSpec{FaaStore: true, Seed: seed})
	t0 := tr.now()
	deps, err := tb.DeployReplicas(workloads.IllegalRecognizer(), 3, func(int) engine.Options {
		return engine.Options{
			Mode:        engine.ModeWorkerSP,
			Data:        engine.DataStore,
			Journal:     journal.New(tb.Env, journal.Config{}),
			TaskTimeout: 20 * time.Second,
			BackoffBase: 200 * time.Millisecond,
			BackoffMax:  5 * time.Second,
			MaxReissues: 10,
		}
	})
	tr.end("DeployReplicas", -1, t0, "scheduler.deploy_ms", time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("deploy replicas: %w", err)
	}
	members := make([]federation.Member, len(deps))
	engines := make([]*engine.Deployment, len(deps))
	for i, d := range deps {
		members[i] = federation.Member{ID: fmt.Sprintf("e%d", i), Engine: d.Engine, Journal: d.Engine.Journal()}
		engines[i] = d.Engine
	}
	fed, err := federation.New(tb.Env, federation.Config{
		Shards:       16,
		LeaseTTL:     time.Second,
		RenewEvery:   250 * time.Millisecond,
		CheckEvery:   250 * time.Millisecond,
		HandoffDelay: 100 * time.Millisecond,
		Seed:         sim.Mix(seed, 5),
	}, nil, members...)
	if err != nil {
		return nil, err
	}
	var kills faults.Schedule
	ids := fed.MemberIDs()
	for k, when := 0, firstKill; when < span; k, when = k+1, when+killGap {
		kills = append(kills, faults.Fault{
			Kind: faults.EngineKill, Engine: ids[(firstVictim+k)%len(ids)], At: when, Duration: downFor,
		})
	}
	inj := faults.NewInjector(tb.Env, tb.Runtime.Nodes, tb.Fabric, tb.Runtime.Store, nil)
	inj.AttachFederation(fed)
	if err := inj.Install(kills); err != nil {
		return nil, err
	}

	s := begin(b, tb, engines...)
	openLoop(tb.Env, s.from, at, func(i int, due sim.Time) {
		b.ops++
		var submit func()
		submit = func() {
			t0 := tr.now()
			_, err := fed.Invoke(engine.InvokeOptions{}, func(r engine.Result) {
				if !s.done(due, r) {
					b.failed++
				}
			})
			tr.end("Federation.Invoke", int64(i), t0, "federation.invoke_us", time.Microsecond)
			var he *federation.HandoffError
			switch {
			case errors.As(err, &he):
				tb.Env.Schedule(he.RetryAfter, submit)
			case err != nil:
				b.failed++
			}
		}
		submit()
	})
	// Lease and detector timers tick forever: run past the last arrival
	// with room for recovery, stop the control plane, then drain.
	t0 = tr.now()
	tb.Env.RunUntil(s.from + sim.Time(span+2*time.Minute))
	fed.Stop()
	tb.Env.Run()
	tr.end("Env.Run", -1, t0, "", 0)
	s.end()

	st := fed.Stats()
	b.counts["federation.claims"] = float64(st.Claims)
	b.counts["federation.adoptions"] = float64(st.Adoptions)
	b.counts["federation.handoff_rejected"] = float64(st.RejectedHandoff)
	b.counts["federation.invocations"] = float64(st.Invocations)
	b.counts["federation.dup_dones"] = float64(st.DupDones)
	var dupDrops int64
	for _, d := range deps {
		js := d.Engine.Journal().Stats()
		b.counts["journal.committed"] += float64(js.Committed)
		b.counts["journal.syncs"] += float64(js.Syncs)
		dupDrops += js.DupDrops
	}
	b.counts["journal.dup_drops"] = float64(dupDrops)
	if err := checkAccounted(b.ops, s.completed, 0); err != nil {
		return b, err
	}
	if st.DupDones != 0 {
		return b, checkErr("no invocation finished twice", "federation DupDones = %d", st.DupDones)
	}
	if dupDrops != 0 {
		return b, checkErr("no committed step re-executed", "journal DupDrops = %d", dupDrops)
	}
	return b, nil
}
