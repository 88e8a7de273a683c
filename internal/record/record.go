// Package record implements the iDNA-style recorder: a machine.Observer
// that builds self-contained per-thread replay logs while the program runs.
//
// The economy of the log comes from the predictability rule (iDNA's
// load-based checkpointing): the recorder keeps, per thread, the memory
// view that thread can reconstruct from its own loads and stores. A load
// is logged only when shared memory disagrees with that view — the first
// access to a location, or a location modified externally (another thread,
// or in iDNA's world a system call or DMA) since the thread last saw it.
// Everything else about the thread's execution is deterministic and is
// regenerated at replay time.
package record

import (
	"sort"

	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Recorder builds a trace.Log from machine observer callbacks. Use Run to
// record a whole program.
type Recorder struct {
	prog    *isa.Program
	seed    int64
	threads map[int]*threadRec
	order   []int // tids in start order

	// Metrics, when set, receives the recorder's stage counters at
	// Finish (loads logged vs. predicted, sequencers, stores). The
	// per-event path only bumps plain ints, so recording with metrics
	// off is unchanged.
	Metrics *obs.Registry

	nLoads       uint64 // loads observed
	nLoadsLogged uint64 // loads the predictability rule had to log
	nStores      uint64
	nSeqs        uint64
	nSysRets     uint64
}

type threadRec struct {
	log  *trace.ThreadLog
	view map[uint64]uint64
	done bool
}

// New returns a Recorder for prog; pass it as machine.Config.Observer.
func New(prog *isa.Program, seed int64) *Recorder {
	return &Recorder{
		prog:    prog,
		seed:    seed,
		threads: make(map[int]*threadRec),
	}
}

// ThreadStarted implements machine.Observer.
func (r *Recorder) ThreadStarted(t *machine.Thread, startTS uint64) {
	tl := &trace.ThreadLog{
		TID:     t.ID,
		StartTS: startTS,
		InitPC:  t.Cpu.PC,
	}
	tl.InitRegs = t.Cpu.Regs
	tl.Seqs = append(tl.Seqs, trace.Sequencer{Idx: 0, TS: startTS, Kind: trace.SeqStart, Aux: -1})
	r.threads[t.ID] = &threadRec{log: tl, view: make(map[uint64]uint64)}
	r.order = append(r.order, t.ID)
}

// Load implements machine.Observer, applying the predictability rule.
func (r *Recorder) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	tr := r.threads[tid]
	r.nLoads++
	if v, known := tr.view[addr]; !known || v != val {
		tr.log.Loads = append(tr.log.Loads, trace.LoadRec{Idx: idx, Addr: addr, Val: val})
		r.nLoadsLogged++
	}
	tr.view[addr] = val
}

// Store implements machine.Observer.
func (r *Recorder) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	r.threads[tid].view[addr] = val
	r.nStores++
}

// Sequencer implements machine.Observer.
func (r *Recorder) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	tr := r.threads[tid]
	aux := int64(-1)
	kind := trace.KindForOp(op)
	if kind == trace.SeqSyscall {
		aux = sysNum
	}
	tr.log.Seqs = append(tr.log.Seqs, trace.Sequencer{Idx: idx, TS: ts, Kind: kind, Aux: aux})
	r.nSeqs++
}

// SyscallRet implements machine.Observer.
func (r *Recorder) SyscallRet(tid int, idx uint64, r0 uint64) {
	tr := r.threads[tid]
	tr.log.SysRets = append(tr.log.SysRets, trace.SysRec{Idx: idx, Res: r0})
	r.nSysRets++
}

// ThreadEnded implements machine.Observer.
func (r *Recorder) ThreadEnded(t *machine.Thread, endTS uint64) {
	tr := r.threads[t.ID]
	tl := tr.log
	tl.EndTS = endTS
	tl.Retired = t.Retired
	tl.ExitCode = t.ExitCode
	switch t.State {
	case machine.Halted:
		tl.EndReason = trace.EndHalted
	case machine.Exited:
		tl.EndReason = trace.EndExited
	case machine.Faulted:
		tl.EndReason = trace.EndFaulted
		tl.Fault = &trace.FaultRec{Kind: int(t.Fault.Kind), PC: t.Fault.PC, Addr: t.Fault.Addr}
	default:
		tl.EndReason = trace.EndRunning
	}
	tl.Seqs = append(tl.Seqs, trace.Sequencer{Idx: t.Retired, TS: endTS, Kind: trace.SeqEnd, Aux: -1})
	tr.done = true
}

// Finish assembles the trace.Log after the machine run completes. Threads
// still live at budget exhaustion get a synthetic SeqEnd past the final
// clock so their last region is closed.
func (r *Recorder) Finish(res *machine.Result) *trace.Log {
	log := &trace.Log{
		Prog:       r.prog,
		Seed:       r.seed,
		FinalClock: res.FinalClock,
		TotalSteps: res.TotalSteps,
		Deadlocked: res.Deadlocked,
	}
	extraTS := res.FinalClock
	for _, tid := range r.order {
		tr := r.threads[tid]
		if !tr.done {
			var mt *machine.Thread
			for _, t := range res.Threads {
				if t.ID == tid {
					mt = t
					break
				}
			}
			extraTS++
			tr.log.Retired = mt.Retired
			tr.log.EndTS = extraTS
			tr.log.EndReason = trace.EndRunning
			tr.log.Seqs = append(tr.log.Seqs, trace.Sequencer{
				Idx: mt.Retired, TS: extraTS, Kind: trace.SeqEnd, Aux: -1,
			})
			tr.done = true
		}
		log.Threads = append(log.Threads, tr.log)
	}
	r.publishMetrics(res)
	return log
}

// publishMetrics flushes the recorder's event tallies into the registry
// (no-op without one). The loads split is the predictability rule's
// effectiveness: loads_predicted were reconstructed from the thread's
// own view and cost zero log bytes.
func (r *Recorder) publishMetrics(res *machine.Result) {
	reg := r.Metrics
	if reg == nil {
		return
	}
	reg.Counter("record.instructions").Add(res.TotalSteps)
	reg.Counter("record.threads").Add(uint64(len(r.order)))
	reg.Counter("record.loads_total").Add(r.nLoads)
	reg.Counter("record.loads_logged").Add(r.nLoadsLogged)
	reg.Counter("record.loads_predicted").Add(r.nLoads - r.nLoadsLogged)
	reg.Counter("record.stores").Add(r.nStores)
	reg.Counter("record.sequencers").Add(r.nSeqs)
	reg.Counter("record.syscall_returns").Add(r.nSysRets)
	if r.nLoads > 0 {
		reg.Gauge("record.load_log_ratio").Set(float64(r.nLoadsLogged) / float64(r.nLoads))
	}
}

// KeyFrameRecorder is a Recorder that also drops a key frame into each
// thread's log every Interval retired instructions — iDNA's mid-log
// resume points, enabling replay.ThreadStateAt to answer per-thread state
// queries without replaying from instruction zero.
type KeyFrameRecorder struct {
	*Recorder
	Interval uint64

	// online, while set, is the detector whose first confirmed race
	// multiplies Interval by factor (OnlineConfig.DownsampleFactor); it
	// is cleared once the interval has been widened.
	online *hb.Online
	factor uint64
}

// NewWithKeyFrames returns a recorder that emits key frames every
// interval instructions (interval must be positive).
func NewWithKeyFrames(prog *isa.Program, seed int64, interval uint64) *KeyFrameRecorder {
	if interval == 0 {
		interval = 1024
	}
	return &KeyFrameRecorder{Recorder: New(prog, seed), Interval: interval}
}

// AfterRetire implements machine.KeyFramer.
func (r *KeyFrameRecorder) AfterRetire(t *machine.Thread) {
	if r.online != nil && r.online.Raced() {
		r.Interval *= r.factor
		r.online = nil
		r.Metrics.Counter("record.keyframes.downsampled").Inc()
	}
	if t.Retired%r.Interval != 0 {
		return
	}
	tr := r.threads[t.ID]
	view := make([]trace.LoadRec, 0, len(tr.view))
	for addr, val := range tr.view {
		view = append(view, trace.LoadRec{Addr: addr, Val: val})
	}
	sort.Slice(view, func(i, j int) bool { return view[i].Addr < view[j].Addr })
	kf := trace.KeyFrame{Idx: t.Retired, PC: t.Cpu.PC, View: view}
	kf.Regs = t.Cpu.Regs
	tr.log.KeyFrames = append(tr.log.KeyFrames, kf)
}

// OnlineConfig picks Run's recording mode: online detection and key
// frames. The recorder and the hb.Online detector share one observer
// fan-out, so a single execution yields both the replay log and a
// raced/race-free verdict with no second decode pass. The verdict rides
// on the log as the in-memory trace.OnlineInfo annotation; the offline
// detector stays the source of truth whenever the verdict is "raced".
type OnlineConfig struct {
	// Detect attaches the hb.Online observer. When false the run is a
	// plain recording (key frames still honored) and no annotation is
	// stamped on the log.
	Detect bool
	// StopOnFirstRace ends the run at the next scheduling-quantum
	// boundary after the first race is observed. The truncated log is
	// still valid (live threads get synthetic end sequencers) and the
	// offline pass confirms the race on it; the truncation point is
	// deterministic for a given seed.
	StopOnFirstRace bool
	// KeyFrameInterval, when positive, records key frames every that
	// many retired instructions (see KeyFrameRecorder).
	KeyFrameInterval uint64
	// DownsampleFactor multiplies the key-frame interval once a race is
	// confirmed: the run's fate is sealed (full offline analysis), so
	// dense resume points stop paying for themselves. 0 means the
	// default of 8; 1 disables down-sampling.
	DownsampleFactor uint64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.DownsampleFactor == 0 {
		c.DownsampleFactor = 8
	}
	return c
}

// Run records one full execution of prog under cfg (cfg.Observer is
// overwritten) and returns the replay log plus the machine result. oc
// picks the recording mode; its zero value is a plain recording. With
// oc.Detect the hb.Online detector watches the same run: the log carries
// its verdict as the Online annotation and its report is returned (nil
// otherwise). A non-nil reg receives the "record" span, the recorder's
// record.* counters, a machine.MetricsObserver, the detect.online.*
// family and the log-size gauges; the size measurement compresses the
// log, which is bookkeeping rather than recording, so it happens after
// the span ends. With a nil reg and no detector the machine's observer is
// the bare Recorder.
func Run(prog *isa.Program, cfg machine.Config, oc OnlineConfig, reg *obs.Registry) (*trace.Log, *machine.Result, *hb.OnlineReport, error) {
	oc = oc.withDefaults()
	sp := reg.StartSpan("record")
	var online *hb.Online
	if oc.Detect {
		online = hb.NewOnline(prog, reg, oc.StopOnFirstRace)
	}
	var rec *Recorder
	observers := make([]machine.Observer, 1, 3)
	if oc.KeyFrameInterval > 0 {
		kfr := NewWithKeyFrames(prog, cfg.Seed, oc.KeyFrameInterval)
		if oc.DownsampleFactor > 1 {
			kfr.online, kfr.factor = online, oc.DownsampleFactor
		}
		rec, observers[0] = kfr.Recorder, kfr
	} else {
		rec = New(prog, cfg.Seed)
		observers[0] = rec
	}
	rec.Metrics = reg
	if online != nil {
		observers = append(observers, online)
	}
	if reg != nil {
		observers = append(observers, machine.NewMetricsObserver(reg))
	}
	// A lone recorder attaches bare: no fan-out is built for it.
	cfg.Observer = observers[0]
	if len(observers) > 1 {
		cfg.Observer = machine.NewMultiObserver(observers...)
	}
	m, err := machine.New(prog, cfg)
	if err != nil {
		sp.End()
		return nil, nil, nil, err
	}
	res := m.Run()
	log := rec.Finish(res)
	var rep *hb.OnlineReport
	if online != nil {
		rep = online.Report(res.Stopped)
		log.Online = online.Info(res.Stopped)
	}
	sp.End()
	if err := log.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if reg != nil {
		st := trace.Stats(log)
		reg.Gauge("record.bits_per_instr_raw").Set(st.RawBitsPerInstr())
		reg.Gauge("record.bits_per_instr_compressed").Set(st.CompressedBitsPerInstr())
		reg.Counter("record.log_bytes_raw").Add(uint64(st.RawBytes))
		reg.Counter("record.log_bytes_compressed").Add(uint64(st.CompressedBytes))
		reg.Counter("record.executions").Inc()
	}
	return log, res, rep, nil
}
