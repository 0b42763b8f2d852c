// Package store implements the three storage substrates of the FaaSFlow
// evaluation:
//
//   - RemoteKV: the remote key-value database (CouchDB in the paper),
//     attached to the storage node and reached through the network fabric —
//     every put/get pays request latency plus bytes over the storage node's
//     link.
//   - MemKV: the per-worker in-memory store (Redis in the paper), holding
//     intermediate data inside reclaimed container memory, subject to the
//     FaaStore quota.
//   - Hybrid: the FaaStore adaptive selector (paper §3.2, §4.3). Writes go
//     to worker-local memory when every consumer of the value runs on the
//     producing worker and quota remains; otherwise to the remote store.
//
// All operations are asynchronous against the simulation clock and report
// completion through callbacks, like every other substrate in this
// repository.
package store

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Location says where a value physically lives.
type Location int

const (
	// LocNone marks a missing value.
	LocNone Location = iota
	// LocRemote marks a value in the remote database.
	LocRemote
	// LocMemory marks a value in a worker's in-memory store.
	LocMemory
)

func (l Location) String() string {
	switch l {
	case LocNone:
		return "none"
	case LocRemote:
		return "remote"
	case LocMemory:
		return "memory"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// Stats aggregates data-movement accounting for one store.
type Stats struct {
	Puts, Gets   int64
	BytesPut     int64
	BytesGot     int64
	TransferTime time.Duration // cumulative wall-clock of all transfers
}

// RemoteKV is the remote database service. Values are identified by string
// keys; only sizes are stored — the simulation never materializes payloads.
type RemoteKV struct {
	env  *sim.Env
	fab  *network.Fabric
	node string // the storage node's fabric ID

	// OpLatency is the fixed per-request overhead of the database engine
	// (request parsing, index lookup, fsync amortization).
	OpLatency time.Duration

	values map[string]int64
	stats  Stats

	down    bool
	pending []*remoteOp // operations queued during an outage, in arrival order
	free    []*remoteOp // finished operations, reused by newOp
}

// Phases of a remoteOp, in the order it passes through them.
const (
	opRequest = iota // admitted: the request (a put's payload) leaves the worker
	opLookup         // the request reached the database: pay OpLatency
	opPayload        // a get's reply (the value, or a miss) goes back
	opAck            // the worker has the acknowledgement: done runs
)

// remoteOp is one Put or Get in flight. Its phase callback is bound once,
// when the op is first made; the op goes back on the store's free list
// after its done callback returns, when nothing can call it any more.
type remoteOp struct {
	s     *RemoteKV
	next  func() // op.advance, bound once
	phase int
	peer  string // the worker the value comes from (put) or goes to (get)
	key   string
	size  int64
	found bool
	start sim.Time

	putDone func() // set for a put
	getDone func(size int64, ok bool)
}

// NewRemoteKV creates a remote store homed on the given fabric node.
func NewRemoteKV(env *sim.Env, fab *network.Fabric, node string, opLatency time.Duration) *RemoteKV {
	if !fab.HasNode(node) {
		panic(fmt.Sprintf("store: remote KV node %q not in fabric", node))
	}
	return &RemoteKV{env: env, fab: fab, node: node, OpLatency: opLatency, values: map[string]int64{}}
}

// SetAvailable toggles the database's availability (the fault injector's
// storage-outage window). While down, Put/Get requests queue instead of
// touching the fabric; restoring availability drains them in arrival order.
// The outage time counts toward each queued operation's TransferTime, so
// storage stalls surface in data-movement accounting.
func (s *RemoteKV) SetAvailable(up bool) {
	if up != s.down {
		return // no transition
	}
	s.down = !up
	if up {
		pending := s.pending
		s.pending = nil
		for _, op := range pending {
			op.advance()
		}
	}
}

// PendingOps reports operations queued behind an outage — the residual
// store work a drained system must not leave behind.
func (s *RemoteKV) PendingOps() int { return len(s.pending) }

// newOp returns a finished op for reuse, or a new one with its phase
// callback bound to it, set up for a request issued now.
func (s *RemoteKV) newOp(peer, key string, size int64) *remoteOp {
	var op *remoteOp
	if n := len(s.free); n > 0 {
		op = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		op = &remoteOp{s: s}
		op.next = op.advance
	}
	op.phase, op.peer, op.key, op.size = opRequest, peer, key, size
	op.start = s.env.Now()
	return op
}

// admit runs op's request now, or queues it until the outage ends.
func (s *RemoteKV) admit(op *remoteOp) {
	if s.down {
		s.pending = append(s.pending, op)
		return
	}
	op.advance()
}

// advance runs the op's next phase. A put is request (the payload upload),
// lookup, ack; a get is request, lookup, payload, ack. A get reads the
// value when its request leaves, so a get queued behind an outage sees the
// writes that landed before the outage ended.
func (op *remoteOp) advance() {
	s := op.s
	switch op.phase {
	case opRequest:
		op.phase = opLookup
		if op.putDone != nil {
			s.fab.Send(op.peer, s.node, op.size, op.next)
			return
		}
		op.size, op.found = s.values[op.key]
		if op.found {
			s.stats.BytesGot += op.size
		}
		s.fab.SendMsg(op.peer, s.node, 128, op.next)
	case opLookup:
		op.phase = opPayload
		if op.putDone != nil {
			op.phase = opAck
		}
		s.env.Schedule(s.OpLatency, op.next)
	case opPayload:
		op.phase = opAck
		if op.found {
			s.fab.Send(s.node, op.peer, op.size, op.next)
		} else {
			// A missing key still pays the round trip but moves no payload.
			s.fab.SendMsg(s.node, op.peer, 128, op.next)
		}
	case opAck:
		s.stats.TransferTime += (s.env.Now() - op.start).Duration()
		if op.putDone != nil {
			s.values[op.key] = op.size
			op.putDone()
		} else {
			op.getDone(op.size, op.found)
		}
		op.putDone, op.getDone, op.peer, op.key = nil, nil, "", ""
		s.free = append(s.free, op)
	}
}

// Put uploads size bytes from worker `from` under key and calls done when
// the database has acknowledged the write.
func (s *RemoteKV) Put(from, key string, size int64, done func()) {
	if done == nil {
		done = func() {}
	}
	s.stats.Puts++
	s.stats.BytesPut += size
	op := s.newOp(from, key, size)
	op.putDone = done
	s.admit(op)
}

// Get downloads the value under key to worker `to`. done receives the value
// size and whether the key existed; a missing key still pays the request
// round-trip but moves no payload.
func (s *RemoteKV) Get(to, key string, done func(size int64, ok bool)) {
	if done == nil {
		done = func(int64, bool) {}
	}
	s.stats.Gets++
	op := s.newOp(to, key, 0)
	op.getDone = done
	s.admit(op)
}

// Delete removes a key (no network cost is modeled for deletes — they ride
// existing control traffic).
func (s *RemoteKV) Delete(key string) { delete(s.values, key) }

// Stats returns cumulative counters.
func (s *RemoteKV) Stats() Stats { return s.stats }

// MemKV is the in-memory store on one worker node. Capacity comes from
// FaaStore's container-memory reclamation and is enforced strictly: a put
// that would exceed the quota fails, forcing the caller to fall back to the
// remote store (the paper's guarantee that FaaStore never adds memory
// pressure to the host).
type MemKV struct {
	env  *sim.Env
	node string

	// Bandwidth is the effective memory-copy bandwidth for local data
	// exchange (bytes/sec).
	Bandwidth float64
	// OpLatency is the fixed per-operation overhead (hash lookup, IPC).
	OpLatency time.Duration

	quota  int64
	used   int64
	values map[string]int64
	stats  Stats
	free   []*memOp // finished copies, reused by newOp
}

// memOp is one local copy in flight. Its callback is bound once, when the
// op is first made, and the op goes back on the store's free list after
// its done callback returns.
type memOp struct {
	s       *MemKV
	fire    func() // op.copied, bound once
	start   sim.Time
	size    int64
	ok      bool
	putDone func() // set for a put
	getDone func(size int64, ok bool)
}

// startCopy schedules a local copy of size bytes issued now, completing with
// putDone (a put) or getDone (a get).
func (s *MemKV) startCopy(size int64, ok bool, putDone func(), getDone func(int64, bool)) {
	var op *memOp
	if n := len(s.free); n > 0 {
		op = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		op = &memOp{s: s}
		op.fire = op.copied
	}
	op.start, op.size, op.ok = s.env.Now(), size, ok
	op.putDone, op.getDone = putDone, getDone
	s.env.Schedule(s.copyTime(size), op.fire)
}

// copied completes the copy.
func (op *memOp) copied() {
	s := op.s
	s.stats.TransferTime += (s.env.Now() - op.start).Duration()
	if op.putDone != nil {
		op.putDone()
	} else {
		op.getDone(op.size, op.ok)
	}
	op.putDone, op.getDone = nil, nil
	s.free = append(s.free, op)
}

// NewMemKV creates an in-memory store for a worker node with the given
// quota in bytes.
func NewMemKV(env *sim.Env, node string, quota int64) *MemKV {
	if quota < 0 {
		panic("store: negative quota")
	}
	return &MemKV{
		env:  env,
		node: node,
		// Redis over loopback with client-side (de)serialization moves
		// ~150 MB/s effective — the local path is latency-free but not
		// free; the paper's Table 4 FaaStore latencies reflect this.
		Bandwidth: 150e6,
		OpLatency: 100 * time.Microsecond,
		quota:     quota,
		values:    map[string]int64{},
	}
}

// Quota reports the current capacity in bytes.
func (s *MemKV) Quota() int64 { return s.quota }

// Used reports the bytes currently held.
func (s *MemKV) Used() int64 { return s.used }

// SetQuota updates capacity (each partition iteration recomputes the quota
// from container reclamation). Shrinking below current usage is allowed;
// existing data stays, but new puts fail until usage drains.
func (s *MemKV) SetQuota(q int64) {
	if q < 0 {
		panic("store: negative quota")
	}
	s.quota = q
}

// TryPut stores size bytes under key if quota allows, reporting success
// synchronously and completing after the local copy time. On failure the
// caller is expected to fall back to the remote store.
func (s *MemKV) TryPut(key string, size int64, done func()) bool {
	if s.used+size > s.quota {
		return false
	}
	if done == nil {
		done = func() {}
	}
	s.used += size
	s.values[key] = size
	s.stats.Puts++
	s.stats.BytesPut += size
	s.startCopy(size, true, done, nil)
	return true
}

// Get reads a key; done receives the size and whether it existed.
func (s *MemKV) Get(key string, done func(size int64, ok bool)) {
	if done == nil {
		done = func(int64, bool) {}
	}
	size, ok := s.values[key]
	s.stats.Gets++
	if ok {
		s.stats.BytesGot += size
	}
	s.startCopy(size, ok, nil, done)
}

// Has reports whether key is resident.
func (s *MemKV) Has(key string) bool {
	_, ok := s.values[key]
	return ok
}

// Size reports a resident key's byte size.
func (s *MemKV) Size(key string) (int64, bool) {
	size, ok := s.values[key]
	return size, ok
}

// Delete releases a key's memory.
func (s *MemKV) Delete(key string) {
	if size, ok := s.values[key]; ok {
		s.used -= size
		delete(s.values, key)
	}
}

// Clear drops every resident key and resets usage — the node hosting the
// store died and its memory contents are gone.
func (s *MemKV) Clear() {
	s.used = 0
	s.values = map[string]int64{}
}

// Stats returns cumulative counters.
func (s *MemKV) Stats() Stats { return s.stats }

func (s *MemKV) copyTime(size int64) time.Duration {
	return s.OpLatency + time.Duration(float64(size)/s.Bandwidth*float64(time.Second))
}

// Hybrid is FaaStore: per-worker adaptive storage that keeps data local
// when all consumers are local and quota allows, spilling to the remote
// database otherwise.
type Hybrid struct {
	remote *RemoteKV
	mem    map[string]*MemKV // worker node -> local store

	// placements remembers where each key went so Get doesn't guess.
	placements map[string]Location
	homes      map[string]string // key -> worker holding it when in memory

	localHits  int64
	localMiss  int64
	remoteOnly bool
	bus        *obs.Bus
	breaker    *Breaker

	// Replication (inactive while replFactor <= 1 — the single-copy
	// FaaStore above is then byte-identical to its pre-replication
	// behavior). With factor k, memory placements go to k worker shards
	// chosen by graph locality; see Put.
	replFactor  int
	repairDelay time.Duration
	alive       func(node string) bool // nil = everything alive
	workerOrder []string               // sorted, for deterministic iteration
	replicas    map[string][]string    // key -> workers holding a copy, write order
	repairQueue map[string]bool        // under-replicated keys awaiting repair
	repairEv    *sim.Event             // the next repair pass; queued while one is pending
	replStats   ReplStats

	// Direct passing (see direct.go): keys pushed producer→consumer without
	// a remote hop, and the workers holding each copy in push order.
	direct      map[string][]string
	directStats DirectStats

	free []*hybridOp // finished operations, reused by newOp
}

// hybridOp is one Put or Get served by a single store: the worker's memory
// tier or the remote database. Its completion callbacks are bound once,
// when the op is first made. An op goes back on the free list only when
// nothing can call it any more: after its memory or remote completion,
// which comes after the breaker watchdog has fired or been disarmed.
type hybridOp struct {
	h      *Hybrid
	key    string
	worker string // the producer (put) or the reader (get)
	size   int64
	start  sim.Time
	// fired marks an op whose breaker watchdog abandoned it: the caller
	// has seen ErrStoreTimeout and the late completion must not call done.
	fired  bool
	settle func()

	putDone func(Location, error) // set for a put
	getDone func(size int64, ok bool, err error)

	// Bound once: the memory tier's and the remote store's completions,
	// and the breaker watchdog's timeout.
	memPut    func()
	memGot    func(size int64, ok bool)
	remotePut func()
	remoteGot func(size int64, ok bool)
	timedOut  func()
}

// newOp returns a finished op for reuse, or a new one with its callbacks
// bound to it, set up for an operation issued now.
func (h *Hybrid) newOp(worker, key string, size int64) *hybridOp {
	var op *hybridOp
	if n := len(h.free); n > 0 {
		op = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
	} else {
		op = &hybridOp{h: h}
		op.memPut = op.memPutDone
		op.memGot = op.memGetDone
		op.remotePut = op.remotePutDone
		op.remoteGot = op.remoteGetDone
		op.timedOut = op.watchdog
	}
	op.worker, op.key, op.size = worker, key, size
	op.start = h.remote.env.Now()
	return op
}

// release puts a finished op back on the free list.
func (op *hybridOp) release() {
	op.key, op.worker = "", ""
	op.fired, op.settle = false, nil
	op.putDone, op.getDone = nil, nil
	op.h.free = append(op.h.free, op)
}

func (op *hybridOp) memPutDone() {
	op.h.pubOp("put", op.key, op.worker, obs.TierMemory, op.size, true, op.start)
	op.putDone(LocMemory, nil)
	op.release()
}

func (op *hybridOp) memGetDone(size int64, ok bool) {
	op.h.pubOp("get", op.key, op.worker, obs.TierMemory, size, ok, op.start)
	op.getDone(size, ok, nil)
	op.release()
}

// trackRemote arms the breaker watchdog for a remote op just admitted.
func (op *hybridOp) trackRemote() { op.settle = op.h.breaker.Track(op.timedOut) }

// watchdog abandons the op: the caller sees a timeout now, and the remote
// completion that may still come only settles the op.
func (op *hybridOp) watchdog() {
	op.fired = true
	if op.putDone != nil {
		// The backend may still apply the write later (the RemoteKV op
		// stays queued), but the caller sees a miss — drop the placement
		// so reads don't trust an unacknowledged write.
		delete(op.h.placements, op.key)
		op.putDone(LocNone, ErrStoreTimeout)
		return
	}
	op.getDone(0, false, ErrStoreTimeout)
}

func (op *hybridOp) remotePutDone() {
	op.settle()
	if op.fired {
		// Late completion of a timed-out write: the data did land, but the
		// caller already moved on. Re-record the placement so the value is
		// at least findable; don't call done twice.
		op.h.placements[op.key] = LocRemote
	} else {
		if op.h.placements[op.key] != LocRemote {
			// Deleted (or rewritten elsewhere) while this write was in
			// flight: drop the copy that just landed, or nothing frees it.
			op.h.remote.Delete(op.key)
		}
		op.h.pubOp("put", op.key, op.worker, obs.TierRemote, op.size, true, op.start)
		op.putDone(LocRemote, nil)
	}
	op.release()
}

func (op *hybridOp) remoteGetDone(size int64, ok bool) {
	op.settle()
	if !op.fired {
		op.h.pubOp("get", op.key, op.worker, obs.TierRemote, size, ok, op.start)
		op.getDone(size, ok, nil)
	}
	op.release()
}

// ReplStats aggregates replication counters.
type ReplStats struct {
	ReplicaWrites  int64 // cross-node copies written at Put time
	ReplicaReads   int64 // Gets served from a non-local surviving replica
	ReReplications int64 // copies restored by the background repair pass
	LostKeys       int64 // keys whose every replica died before repair
}

// SetBus attaches (or detaches, with nil) an observability bus; every
// completed Put/Get publishes a StoreEvent carrying the serving tier,
// hit/miss outcome, and the operation's span.
func (h *Hybrid) SetBus(b *obs.Bus) { h.bus = b }

// SetBreaker guards the remote path with a circuit breaker (nil disables).
// Local-memory operations are never gated — only remote round-trips can
// brown out.
func (h *Hybrid) SetBreaker(b *Breaker) { h.breaker = b }

// SetReplication turns on k-way replicated memory placement. With factor
// k >= 2, Put writes up to k copies to worker shards chosen by graph
// locality (consumers first, then the producer, then the remaining workers
// in sorted order), Get falls back to surviving replicas when the local
// copy's node died, and DropWorker schedules a background repair pass
// after repairDelay that restores the factor by copying from a survivor.
// Factor <= 1 restores the single-copy behavior exactly.
func (h *Hybrid) SetReplication(factor int, repairDelay time.Duration) {
	if factor < 1 {
		factor = 1
	}
	if repairDelay <= 0 {
		repairDelay = 10 * time.Millisecond
	}
	h.replFactor = factor
	h.repairDelay = repairDelay
	h.workerOrder = h.workerOrder[:0]
	for w := range h.mem {
		h.workerOrder = append(h.workerOrder, w)
	}
	sort.Strings(h.workerOrder)
}

// ReplicationFactor reports the configured factor (1 = off).
func (h *Hybrid) ReplicationFactor() int {
	if h.replFactor < 1 {
		return 1
	}
	return h.replFactor
}

// SetAlive installs the node-liveness predicate replication consults when
// choosing placement and repair targets (nil = everything alive). The
// harness wires this to the fault injector's node state.
func (h *Hybrid) SetAlive(fn func(node string) bool) { h.alive = fn }

func (h *Hybrid) nodeAlive(node string) bool { return h.alive == nil || h.alive(node) }

// ReplStats returns a snapshot of replication counters.
func (h *Hybrid) ReplStats() ReplStats { return h.replStats }

// replicaCandidates orders placement targets by graph locality: each
// consumer (so its reads stay local), then the producer, then the
// remaining workers in sorted order as spill targets.
func (h *Hybrid) replicaCandidates(from string, consumers []string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(h.workerOrder))
	add := func(w string) {
		if !seen[w] && h.mem[w] != nil {
			seen[w] = true
			out = append(out, w)
		}
	}
	for _, c := range consumers {
		add(c)
	}
	add(from)
	for _, w := range h.workerOrder {
		add(w)
	}
	return out
}

// pubOp publishes one completed storage operation.
func (h *Hybrid) pubOp(op, key, worker string, tier obs.StoreTier, bytes int64, hit bool, start sim.Time) {
	if !h.bus.Active() {
		return
	}
	h.bus.Publish(obs.StoreEvent{
		Op:     op,
		Key:    key,
		Worker: worker,
		Tier:   tier,
		Bytes:  bytes,
		Hit:    hit,
		Start:  start,
		End:    h.remote.env.Now(),
	})
}

// NewHybrid builds a FaaStore over one remote store and the per-worker
// in-memory stores. remoteOnly disables locality entirely (the paper's
// plain-FaaSFlow / HyperFlow data path) so experiments can toggle FaaStore.
func NewHybrid(remote *RemoteKV, mem map[string]*MemKV, remoteOnly bool) *Hybrid {
	h := &Hybrid{
		remote:      remote,
		mem:         mem,
		placements:  map[string]Location{},
		homes:       map[string]string{},
		remoteOnly:  remoteOnly,
		replicas:    map[string][]string{},
		repairQueue: map[string]bool{},
		direct:      map[string][]string{},
	}
	h.repairEv = remote.env.NewEvent(h.repairPass)
	return h
}

// Put stores a value produced on worker `from`. consumers lists the worker
// nodes that will read the key. The value goes to local memory only when
// FaaStore is active, every consumer is the producing worker, and the local
// quota holds it; otherwise it goes remote. done receives the chosen
// location and a nil error, or LocNone with ErrBreakerOpen/ErrStoreTimeout
// when the breaker fails the remote write fast.
func (h *Hybrid) Put(from, key string, size int64, consumers []string, done func(Location, error)) {
	if done == nil {
		done = func(Location, error) {}
	}
	replicated := !h.remoteOnly && h.replFactor > 1 && len(consumers) > 0
	// Replicated placement relaxes the all-local rule: remote consumers read
	// from their own replica (or any survivor) instead of forcing the value
	// to the database. Terminal outputs still go remote.
	if replicated && h.putReplicated(from, key, size, consumers, h.remote.env.Now(), done) {
		return
	}
	op := h.newOp(from, key, size)
	op.putDone = done
	if !replicated && !h.remoteOnly && h.allLocal(from, consumers) {
		if m := h.mem[from]; m != nil && m.TryPut(key, size, op.memPut) {
			h.placements[key] = LocMemory
			h.homes[key] = from
			return
		}
	}
	if err := h.breaker.Admit(); err != nil {
		// Fail fast without issuing the op: the value never lands anywhere,
		// so no placement is recorded and a later Get misses honestly.
		op.release()
		h.remote.env.Schedule(0, func() { done(LocNone, err) })
		return
	}
	h.placements[key] = LocRemote
	op.trackRemote()
	h.remote.Put(from, key, size, op.remotePut)
}

// putReplicated tries to place up to replFactor memory copies of key on
// the locality-ordered candidates. Quota is reserved synchronously via
// TryPut; cross-node copies additionally pay the fabric transfer. Reports
// whether at least one copy landed — if none fit, the caller falls back to
// the remote path. done fires once, after every copy has completed.
func (h *Hybrid) putReplicated(from, key string, size int64, consumers []string, start sim.Time, done func(Location, error)) bool {
	var placed []string
	remaining := 0
	complete := func() {
		remaining--
		if remaining == 0 {
			h.pubOp("put", key, from, obs.TierMemory, size, true, start)
			done(LocMemory, nil)
		}
	}
	for _, node := range h.replicaCandidates(from, consumers) {
		if len(placed) == h.replFactor {
			break
		}
		if !h.nodeAlive(node) {
			continue
		}
		m := h.mem[node]
		node := node
		if node == from {
			if m.TryPut(key, size, func() { complete() }) {
				placed = append(placed, node)
				remaining++
			}
			continue
		}
		if m.TryPut(key, size, nil) {
			placed = append(placed, node)
			remaining++
			h.replStats.ReplicaWrites++
			h.remote.fab.Send(from, node, size, func() { complete() })
		}
	}
	if len(placed) == 0 {
		return false
	}
	h.placements[key] = LocMemory
	h.homes[key] = placed[0]
	h.replicas[key] = placed
	return true
}

func (h *Hybrid) allLocal(from string, consumers []string) bool {
	if len(consumers) == 0 {
		return false // terminal outputs go to the database (user-visible)
	}
	for _, c := range consumers {
		if c != from {
			return false
		}
	}
	return true
}

// Get reads key from worker node `at`, checking local memory first. done
// receives the size, whether the key was found, and a nil error — or
// (0, false, ErrBreakerOpen/ErrStoreTimeout) when the breaker fails the
// remote read fast.
func (h *Hybrid) Get(at, key string, done func(size int64, ok bool, err error)) {
	if done == nil {
		done = func(int64, bool, error) {}
	}
	start := h.remote.env.Now()
	if hold := h.direct[key]; h.placements[key] == LocMemory && len(hold) > 0 {
		// Direct-pushed key: the copy usually sits in the reader's own
		// memory tier (that is the point of the push); a reader on another
		// node (re-placed after a fault) fetches from a surviving holder.
		if m := h.mem[at]; m != nil && m.Has(key) && h.nodeAlive(at) {
			h.localHits++
			h.getMem(m, at, key, done)
			return
		}
		src := ""
		for _, r := range hold {
			if m := h.mem[r]; m != nil && m.Has(key) && h.nodeAlive(r) {
				src = r
				break
			}
		}
		if src != "" {
			h.directStats.FallbackReads++
			h.mem[src].Get(key, func(size int64, ok bool) {
				if !ok {
					done(0, false, nil)
					return
				}
				h.remote.fab.Send(src, at, size, func() {
					h.pubOp("get", key, at, obs.TierMemory, size, true, start)
					done(size, true, nil)
				})
			})
			return
		}
		// Every holder died: fall through to the remote store, which will
		// report an honest miss (direct copies were never durable).
	} else if h.placements[key] == LocMemory && h.replFactor > 1 {
		if src := h.pickReplica(at, key); src != "" {
			m := h.mem[src]
			if src == at {
				h.localHits++
				h.getMem(m, at, key, done)
				return
			}
			// Replica fallback: the reader's node has no copy (or it died
			// with its node) but a sibling replica survives — fetch it over
			// the fabric instead of re-executing the producer.
			h.replStats.ReplicaReads++
			m.Get(key, func(size int64, ok bool) {
				if !ok {
					done(0, false, nil)
					return
				}
				h.remote.fab.Send(src, at, size, func() {
					h.pubOp("get", key, at, obs.TierMemory, size, true, start)
					done(size, true, nil)
				})
			})
			return
		}
		// Every replica died before repair: fall through to the remote
		// store, which will report an honest miss.
	} else if h.placements[key] == LocMemory && h.homes[key] == at {
		if m := h.mem[at]; m != nil && m.Has(key) {
			h.localHits++
			h.getMem(m, at, key, done)
			return
		}
	}
	h.localMiss++
	if err := h.breaker.Admit(); err != nil {
		h.remote.env.Schedule(0, func() { done(0, false, err) })
		return
	}
	op := h.newOp(at, key, 0)
	op.getDone = done
	op.trackRemote()
	h.remote.Get(at, key, op.remoteGot)
}

// getMem reads key from the reader's own memory tier m.
func (h *Hybrid) getMem(m *MemKV, at, key string, done func(size int64, ok bool, err error)) {
	op := h.newOp(at, key, 0)
	op.getDone = done
	m.Get(key, op.memGot)
}

// pickReplica chooses which surviving copy serves a read from `at`:
// the local replica when present, else the first live holder in write
// order. Empty string means every copy is gone.
func (h *Hybrid) pickReplica(at, key string) string {
	reps := h.replicas[key]
	if m := h.mem[at]; m != nil && m.Has(key) && h.nodeAlive(at) {
		for _, r := range reps {
			if r == at {
				return at
			}
		}
	}
	for _, r := range reps {
		if m := h.mem[r]; m != nil && m.Has(key) && h.nodeAlive(r) {
			return r
		}
	}
	return ""
}

// Delete releases a key from whichever store holds it.
func (h *Hybrid) Delete(key string) {
	switch h.placements[key] {
	case LocMemory:
		if hold := h.direct[key]; len(hold) > 0 {
			for _, r := range hold {
				if m := h.mem[r]; m != nil {
					m.Delete(key)
				}
			}
		} else if reps := h.replicas[key]; len(reps) > 0 {
			for _, r := range reps {
				if m := h.mem[r]; m != nil {
					m.Delete(key)
				}
			}
		} else if m := h.mem[h.homes[key]]; m != nil {
			m.Delete(key)
		}
	case LocRemote:
		h.remote.Delete(key)
	}
	delete(h.placements, key)
	delete(h.homes, key)
	delete(h.replicas, key)
	delete(h.repairQueue, key)
	delete(h.direct, key)
}

// DropWorker models a worker's in-memory store dying with its node: every
// copy homed there is lost and the local quota usage resets. Replicated
// keys survive on their sibling shards — reads fall back to a survivor and
// a background repair pass restores the replication factor; a key whose
// every replica died is lost (later Gets miss honestly). Safe for unknown
// workers.
func (h *Hybrid) DropWorker(node string) {
	m := h.mem[node]
	if m == nil {
		return
	}
	h.dropDirectWorker(node)
	if h.replFactor > 1 {
		var hit []string
		for key, reps := range h.replicas {
			for _, r := range reps {
				if r == node {
					hit = append(hit, key)
					break
				}
			}
		}
		sort.Strings(hit)
		for _, key := range hit {
			reps := h.replicas[key][:0]
			for _, r := range h.replicas[key] {
				if r != node {
					reps = append(reps, r)
				}
			}
			if len(reps) == 0 {
				delete(h.placements, key)
				delete(h.homes, key)
				delete(h.replicas, key)
				delete(h.repairQueue, key)
				h.replStats.LostKeys++
				continue
			}
			h.replicas[key] = reps
			if h.homes[key] == node {
				h.homes[key] = reps[0]
			}
			h.repairQueue[key] = true
		}
		h.scheduleRepair()
	}
	for key, home := range h.homes {
		if home == node {
			delete(h.placements, key)
			delete(h.homes, key)
		}
	}
	m.Clear()
}

// scheduleRepair arms one repair pass repairDelay from now (idempotent
// while a pass is pending — repeated kills coalesce into the next pass).
func (h *Hybrid) scheduleRepair() {
	if h.repairEv.Queued() || len(h.repairQueue) == 0 {
		return
	}
	env := h.remote.env
	env.Reschedule(h.repairEv, env.After(h.repairDelay))
}

// repairPass restores the replication factor for every queued key by
// copying from a surviving replica to live workers with quota, in sorted
// key order. One bounded pass: keys that still can't be repaired (no
// survivor readable, or no capacity anywhere) are dropped from the queue —
// the next DropWorker re-queues whatever it touches.
func (h *Hybrid) repairPass() {
	keys := make([]string, 0, len(h.repairQueue))
	for key := range h.repairQueue {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	h.repairQueue = map[string]bool{}
	for _, key := range keys {
		reps := h.replicas[key]
		if len(reps) == 0 || len(reps) >= h.replFactor {
			continue
		}
		src := ""
		for _, r := range reps {
			if m := h.mem[r]; m != nil && m.Has(key) && h.nodeAlive(r) {
				src = r
				break
			}
		}
		if src == "" {
			continue
		}
		size, _ := h.mem[src].Size(key)
		for _, cand := range h.workerOrder {
			if len(h.replicas[key]) >= h.replFactor {
				break
			}
			if !h.nodeAlive(cand) || h.mem[cand] == nil || h.mem[cand].Has(key) {
				continue
			}
			if !h.mem[cand].TryPut(key, size, nil) {
				continue
			}
			h.replicas[key] = append(h.replicas[key], cand)
			h.replStats.ReReplications++
			h.remote.fab.Send(src, cand, size, func() {})
		}
	}
}

// LocalHits reports how many Gets were served from worker memory.
func (h *Hybrid) LocalHits() int64 { return h.localHits }

// LocalMisses reports how many Gets went to the remote store.
func (h *Hybrid) LocalMisses() int64 { return h.localMiss }

// Remote exposes the underlying remote store (for stats).
func (h *Hybrid) Remote() *RemoteKV { return h.remote }

// TransferTime sums cumulative transfer time across the remote store and
// every local store — the paper's Table 4 "overall latencies of data
// movement in all edges" metric.
func (h *Hybrid) TransferTime() time.Duration {
	total := h.remote.Stats().TransferTime
	for _, m := range h.mem {
		total += m.Stats().TransferTime
	}
	return total
}
