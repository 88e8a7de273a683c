package machine

import (
	"repro/internal/isa"
	"repro/internal/obs"
)

// MetricsObserver is an Observer that counts the machine's raw event
// stream into an obs.Registry — the instrumentation consumer the
// MultiObserver fan-out exists for. It attaches next to the recorder
// (record.Run with a registry) so recording and measurement share one run
// without perturbing each other.
//
// Counter catalog (see docs/OBSERVABILITY.md):
//
//	machine.loads            successful data loads observed
//	machine.stores           successful data stores observed
//	machine.atomic_ops       lock-prefixed accesses among them
//	machine.sequencers       synchronization instructions retired
//	machine.syscall_returns  syscall results produced
//	machine.threads_started  threads that became live
//	machine.threads_ended    threads that terminated
type MetricsObserver struct {
	loads      *obs.Counter
	stores     *obs.Counter
	atomics    *obs.Counter
	seqs       *obs.Counter
	sysrets    *obs.Counter
	started    *obs.Counter
	ended      *obs.Counter
	retireHist *obs.Histogram
}

// NewMetricsObserver builds an observer recording into reg. The counters
// are resolved once here so the per-event path is a single atomic add.
// A nil registry yields a valid observer that counts into the void.
func NewMetricsObserver(reg *obs.Registry) *MetricsObserver {
	return &MetricsObserver{
		loads:      reg.Counter("machine.loads"),
		stores:     reg.Counter("machine.stores"),
		atomics:    reg.Counter("machine.atomic_ops"),
		seqs:       reg.Counter("machine.sequencers"),
		sysrets:    reg.Counter("machine.syscall_returns"),
		started:    reg.Counter("machine.threads_started"),
		ended:      reg.Counter("machine.threads_ended"),
		retireHist: reg.Histogram("machine.instructions_per_thread"),
	}
}

// ThreadStarted implements Observer.
func (m *MetricsObserver) ThreadStarted(t *Thread, startTS uint64) { m.started.Inc() }

// ThreadEnded implements Observer.
func (m *MetricsObserver) ThreadEnded(t *Thread, endTS uint64) {
	m.ended.Inc()
	m.retireHist.Observe(int(t.Retired))
}

// Load implements Observer.
func (m *MetricsObserver) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	m.loads.Inc()
	if atomic {
		m.atomics.Inc()
	}
}

// Store implements Observer.
func (m *MetricsObserver) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	m.stores.Inc()
	if atomic {
		m.atomics.Inc()
	}
}

// Sequencer implements Observer.
func (m *MetricsObserver) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	m.seqs.Inc()
}

// SyscallRet implements Observer.
func (m *MetricsObserver) SyscallRet(tid int, idx uint64, res uint64) { m.sysrets.Inc() }
