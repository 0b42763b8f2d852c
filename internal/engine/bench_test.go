// External test package: perf imports engine, so the wrappers live
// outside package engine. Bodies are shared with the BENCH Runner; the
// obs-off/idle/on split is the self-overhead accounting axis.
package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/perf"
)

func BenchmarkDispatchWorkerSP(b *testing.B) {
	perf.BenchEngineDispatch(b, engine.ModeWorkerSP, perf.ObsOff)
}

func BenchmarkDispatchMasterSP(b *testing.B) {
	perf.BenchEngineDispatch(b, engine.ModeMasterSP, perf.ObsOff)
}

func BenchmarkDispatchObsIdle(b *testing.B) {
	perf.BenchEngineDispatch(b, engine.ModeWorkerSP, perf.ObsIdle)
}

func BenchmarkDispatchObsOn(b *testing.B) {
	perf.BenchEngineDispatch(b, engine.ModeWorkerSP, perf.ObsOn)
}

// BenchmarkDispatchMasterSPStorage runs Genome(50) under MasterSP with
// every payload in the remote store, the setup of bench's
// gen-storage-bound workload.
func BenchmarkDispatchMasterSPStorage(b *testing.B) {
	perf.BenchDispatchStorage(b)
}
