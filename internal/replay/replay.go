// Package replay re-executes a recorded program from its trace.Log.
//
// Each thread is replayed purely from its own ThreadLog: the interpreter
// runs the real code, and whenever it reaches an instruction index that
// has a logged load or syscall result, the logged value is injected. A
// thread's replay is therefore exact regardless of what other threads did.
//
// To reconstruct the global picture, replay processes one sequencing
// region at a time, in the order of the regions' starting sequencer
// timestamps — exactly the iDNA replayer's schedule. Along the way it
// rebuilds a global memory image and records, for every region, the
// per-address live-in values, the register state at region entry, and
// every data access. Those are the inputs the happens-before detector and
// the classification virtual processor consume.
package replay

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Access is one data-memory access observed during replay.
type Access struct {
	TID     int
	Idx     uint64 // thread-local instruction index
	PC      int
	Addr    uint64
	Val     uint64 // value loaded or stored
	IsWrite bool
	Atomic  bool // performed by a lock-prefixed instruction
}

// Region is one sequencing region: the instructions a thread executed
// between two consecutive sequencers.
type Region struct {
	TID     int
	Ordinal int // region index within its thread
	Global  int // index into Execution.Regions (schedule order)

	StartTS, EndTS   uint64 // sequencer timestamps bounding the region
	StartIdx, EndIdx uint64 // instruction index range [StartIdx, EndIdx)
	StartKind        trace.SeqKind
	EndKind          trace.SeqKind

	StartCpu  machine.Cpu       // architectural state at region entry
	Accesses  []Access          // data accesses, in execution order
	LiveIn    map[uint64]uint64 // pre-region values of addresses the region touches
	HeapEpoch int               // heap events applied before this region ran

	// Annotations for the opening synchronization instruction (the one
	// whose sequencer starts this region), filled in during replay.
	SyncAddr     uint64 // effective address of an opening lock/unlock/atomic
	StartSyscall int64  // opening syscall number, -1 otherwise
	SpawnChild   int    // tid created when the opening syscall is spawn, else -1
	JoinTarget   int    // tid joined when the opening syscall is join, else -1
}

// Overlaps reports whether two regions' timestamp intervals intersect —
// the paper's happens-before test: no sequencer orders the two regions.
func (r *Region) Overlaps(o *Region) bool {
	return r.TID != o.TID && r.StartTS < o.EndTS && o.StartTS < r.EndTS
}

// HeapEventKind tags entries of the global heap event list.
type HeapEventKind uint8

const (
	HeapAlloc HeapEventKind = iota
	HeapFree
)

// HeapEvent is one allocation-lifecycle event, in region-schedule order.
type HeapEvent struct {
	Kind HeapEventKind
	Base uint64
	Size uint64
}

// ThreadReplay is the per-thread outcome of a replay.
type ThreadReplay struct {
	TID       int
	FinalCpu  machine.Cpu
	Output    []int64
	Regions   []*Region
	EndReason trace.EndReason
	ExitCode  uint64
}

// Execution is the fully replayed run.
type Execution struct {
	Log        *trace.Log
	Prog       *isa.Program
	Threads    []*ThreadReplay
	Regions    []*Region // all regions in schedule (start-timestamp) order
	HeapEvents []HeapEvent
	FinalMem   map[uint64]uint64 // reconstructed global memory image
}

// Thread returns the replay of tid, or nil.
func (e *Execution) Thread(tid int) *ThreadReplay {
	for _, t := range e.Threads {
		if t.TID == tid {
			return t
		}
	}
	return nil
}

// PoisonedAt reports whether addr belongs to a freed block as of heap
// epoch (the classifier uses this to reproduce use-after-free faults).
func (e *Execution) PoisonedAt(addr uint64, epoch int) bool {
	poisoned := false
	for i := 0; i < epoch && i < len(e.HeapEvents); i++ {
		ev := e.HeapEvents[i]
		if addr >= ev.Base && addr < ev.Base+ev.Size {
			poisoned = ev.Kind == HeapFree
		}
	}
	return poisoned
}

// BlockAt returns the live allocation covering base exactly as of epoch.
func (e *Execution) BlockAt(base uint64, epoch int) (uint64, bool) {
	size, live := uint64(0), false
	for i := 0; i < epoch && i < len(e.HeapEvents); i++ {
		ev := e.HeapEvents[i]
		if ev.Base == base {
			live = ev.Kind == HeapAlloc
			size = ev.Size
		}
	}
	if !live {
		return 0, false
	}
	return size, true
}

// Options tunes a replay.
type Options struct {
	// SkipAccesses disables access/live-in collection; the replay then
	// only reproduces per-thread state (used by the replay-overhead
	// benchmark, which measures pure re-execution).
	SkipAccesses bool
	// StopAfterRegions, when positive, replays only that many regions of
	// the global schedule and stops. This is the time-travel primitive:
	// replaying successively shorter prefixes steps the whole execution
	// backwards (iDNA's reverse debugging works the same way — replay to
	// an earlier point).
	StopAfterRegions int
	// Metrics, when set, receives the replay stage counters (regions
	// replayed, instructions re-executed, injected loads and syscall
	// results). Nil costs nothing on the hot path.
	Metrics *obs.Registry
}

// Run replays log completely. It fails if the log is internally
// inconsistent (corrupt, truncated, or not produced by the recorder).
func Run(log *trace.Log, opts Options) (*Execution, error) {
	sess, err := NewSession(log, opts)
	if err != nil {
		return nil, err
	}
	limit := len(sess.exec.Regions)
	if opts.StopAfterRegions > 0 && opts.StopAfterRegions < limit {
		limit = opts.StopAfterRegions
	}
	for sess.Pos() < limit {
		if err := sess.StepRegion(); err != nil {
			return nil, err
		}
	}
	return sess.Finish()
}

// Session is a resumable replay: regions are processed one at a time, and
// the whole replay state can be snapshotted and restored — the analogue
// of iDNA's key frames, and what gives the time-travel debugger O(gap)
// seeks instead of O(prefix) replays.
type Session struct {
	log       *trace.Log
	opts      Options
	exec      *Execution
	replayers map[int]*threadReplayer
	pos       int          // regions processed so far
	cRegions  *obs.Counter // replay.regions (nil when uninstrumented)

	accScratch []Access // reusable access collection buffer (see StepRegion)
}

// NewSession validates the log, builds the per-thread replayers, and
// carves the region schedule without executing anything.
func NewSession(log *trace.Log, opts Options) (*Session, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	exec := &Execution{
		Log:      log,
		Prog:     log.Prog,
		FinalMem: make(map[uint64]uint64),
	}

	// Build per-thread replayers and carve their region lists.
	replayers := make(map[int]*threadReplayer, len(log.Threads))
	for _, tl := range log.Threads {
		tr := newThreadReplayer(log.Prog, tl, exec, opts)
		replayers[tl.TID] = tr
		exec.Threads = append(exec.Threads, tr.result)
		exec.Regions = append(exec.Regions, tr.result.Regions...)
	}

	// Schedule: regions ordered by starting sequencer timestamp. The only
	// possible tie is between a parent's post-spawn region and the child's
	// first region (both anchored at the spawn sequencer); the child goes
	// first, since conceptually it exists from the instant of the spawn.
	// The Ordinal tie-break makes the order total (same-thread regions are
	// already in Ordinal order), so an unstable sort gives the same result
	// as a stable one without the stable sort's merge passes.
	sort.Slice(exec.Regions, func(i, j int) bool {
		a, b := exec.Regions[i], exec.Regions[j]
		if a.StartTS != b.StartTS {
			return a.StartTS < b.StartTS
		}
		if a.StartKind != b.StartKind {
			return a.StartKind == trace.SeqStart
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Ordinal < b.Ordinal
	})
	for i, r := range exec.Regions {
		r.Global = i
	}
	s := &Session{log: log, opts: opts, exec: exec, replayers: replayers}
	if opts.Metrics != nil {
		s.cRegions = opts.Metrics.Counter("replay.regions")
		opts.Metrics.Counter("replay.executions").Inc()
		opts.Metrics.Counter("replay.threads").Add(uint64(len(log.Threads)))
		opts.Metrics.Emit("replay.regions", uint64(len(exec.Regions)))
	}
	return s, nil
}

// Exec exposes the (partially processed) execution.
func (s *Session) Exec() *Execution { return s.exec }

// Pos returns how many regions of the schedule have been processed.
func (s *Session) Pos() int { return s.pos }

// Done reports whether the whole schedule has been processed.
func (s *Session) Done() bool { return s.pos >= len(s.exec.Regions) }

// ThreadCpu returns the architectural state of tid as of the current
// position.
func (s *Session) ThreadCpu(tid int) (machine.Cpu, bool) {
	tr, ok := s.replayers[tid]
	if !ok {
		return machine.Cpu{}, false
	}
	return tr.cpu, true
}

// StepRegion processes the next region of the schedule.
func (s *Session) StepRegion() error {
	if s.Done() {
		return fmt.Errorf("replay: session already at the end")
	}
	region := s.exec.Regions[s.pos]
	tr := s.replayers[region.TID]
	s.cRegions.Add(1)
	region.HeapEpoch = len(s.exec.HeapEvents)
	scratchBacked := false
	if region.Accesses == nil && !s.opts.SkipAccesses {
		// First processing: collect accesses into the session's reusable
		// buffer, then shrink-copy below. Most instructions of a region are
		// not data accesses, so sizing an allocation by region length would
		// waste most of it, and the exact count is only known afterwards.
		region.Accesses = s.accScratch[:0]
		scratchBacked = true
	}
	region.Accesses = region.Accesses[:0] // reprocessing after Restore starts clean
	if err := tr.runRegion(region); err != nil {
		return err
	}
	if scratchBacked {
		s.accScratch = region.Accesses[:0] // keep the grown buffer for the next region
		exact := make([]Access, len(region.Accesses))
		copy(exact, region.Accesses)
		region.Accesses = exact
	}
	if !s.opts.SkipAccesses {
		// Live-in: the pre-region global image restricted to the region's
		// footprint, completed by the region's own first loads for
		// addresses the image has not seen yet.
		region.LiveIn = make(map[uint64]uint64, len(region.Accesses)/4+1)
		for _, a := range region.Accesses {
			if _, seen := region.LiveIn[a.Addr]; seen {
				continue
			}
			if v, ok := s.exec.FinalMem[a.Addr]; ok {
				region.LiveIn[a.Addr] = v
			} else if !a.IsWrite {
				region.LiveIn[a.Addr] = a.Val
			}
			// First access is a write and the image has no value:
			// genuinely unknown; leave absent.
		}
		for _, a := range region.Accesses {
			s.exec.FinalMem[a.Addr] = a.Val
		}
	}
	s.pos++
	return nil
}

// Finish runs the end-of-replay consistency checks and returns the
// execution. For complete sessions every thread must have consumed its
// whole log; partial sessions (time travel) skip that check and trim the
// region list to what ran.
func (s *Session) Finish() (*Execution, error) {
	complete := s.Done() && s.opts.StopAfterRegions == 0
	for _, tl := range s.log.Threads {
		tr := s.replayers[tl.TID]
		if complete && tr.idx != tl.Retired {
			return nil, fmt.Errorf("replay: thread %d stopped at %d of %d instructions",
				tl.TID, tr.idx, tl.Retired)
		}
		tr.result.FinalCpu = tr.cpu
	}
	if !complete && s.pos < len(s.exec.Regions) {
		s.exec.Regions = s.exec.Regions[:s.pos]
	}
	return s.exec, nil
}

// Snapshot captures the complete replay state at the current position.
type Snapshot struct {
	pos        int
	heapEvents int
	finalMem   map[uint64]uint64
	threads    map[int]threadSnap
}

// Pos returns the schedule position the snapshot was taken at.
func (sn *Snapshot) Pos() int { return sn.pos }

type threadSnap struct {
	cpu       machine.Cpu
	idx       uint64
	loadPtr   int
	sysPtr    int
	mem       map[uint64]uint64
	outputLen int
}

// Snapshot captures the session state (a key frame).
func (s *Session) Snapshot() *Snapshot {
	sn := &Snapshot{
		pos:        s.pos,
		heapEvents: len(s.exec.HeapEvents),
		finalMem:   copyMap(s.exec.FinalMem),
		threads:    make(map[int]threadSnap, len(s.replayers)),
	}
	for tid, tr := range s.replayers {
		sn.threads[tid] = threadSnap{
			cpu:       tr.cpu,
			idx:       tr.idx,
			loadPtr:   tr.loadPtr,
			sysPtr:    tr.sysPtr,
			mem:       copyMap(tr.mem),
			outputLen: len(tr.result.Output),
		}
	}
	return sn
}

// Restore rewinds (or fast-forwards) the session to a snapshot.
func (s *Session) Restore(sn *Snapshot) {
	s.pos = sn.pos
	s.exec.HeapEvents = s.exec.HeapEvents[:sn.heapEvents]
	s.exec.FinalMem = copyMap(sn.finalMem)
	for tid, ts := range sn.threads {
		tr := s.replayers[tid]
		tr.cpu = ts.cpu
		tr.idx = ts.idx
		tr.loadPtr = ts.loadPtr
		tr.sysPtr = ts.sysPtr
		tr.mem = copyMap(ts.mem)
		tr.result.Output = tr.result.Output[:ts.outputLen]
		tr.err = nil
		tr.cur = nil
	}
}

func copyMap(m map[uint64]uint64) map[uint64]uint64 {
	c := make(map[uint64]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// StateAt replays the first n regions of the schedule and returns the
// partial execution: thread states and the reconstructed memory image as
// of that point. Calling it with decreasing n is reverse execution.
func StateAt(log *trace.Log, n int) (*Execution, error) {
	if n <= 0 {
		n = 1
	}
	return Run(log, Options{StopAfterRegions: n})
}

// threadReplayer replays one thread from its log.
type threadReplayer struct {
	prog *isa.Program
	log  *trace.ThreadLog
	exec *Execution
	opts Options

	cpu machine.Cpu
	mem map[uint64]uint64 // the thread's replayed memory view
	idx uint64            // next instruction index to execute

	loadPtr int
	sysPtr  int

	cur    *Region // region currently being replayed
	result *ThreadReplay
	err    error

	// Stage counters, nil when the replay is uninstrumented.
	cInstr   *obs.Counter // replay.instructions
	cLoadInj *obs.Counter // replay.loads_injected
	cSysInj  *obs.Counter // replay.sysrets_injected
}

func newThreadReplayer(prog *isa.Program, tl *trace.ThreadLog, exec *Execution, opts Options) *threadReplayer {
	tr := &threadReplayer{
		prog: prog,
		log:  tl,
		exec: exec,
		opts: opts,
		mem:  make(map[uint64]uint64),
		result: &ThreadReplay{
			TID:       tl.TID,
			EndReason: tl.EndReason,
			ExitCode:  tl.ExitCode,
		},
	}
	tr.cpu.PC = tl.InitPC
	tr.cpu.Regs = tl.InitRegs
	if opts.Metrics != nil {
		tr.cInstr = opts.Metrics.Counter("replay.instructions")
		tr.cLoadInj = opts.Metrics.Counter("replay.loads_injected")
		tr.cSysInj = opts.Metrics.Counter("replay.sysrets_injected")
	}

	// Carve regions from the sequencer list: region k spans
	// [seq[k].Idx, seq[k+1].Idx) and [seq[k].TS, seq[k+1].TS).
	// The Region structs are carved from one block allocation; the block
	// is never resized, so the pointers into it stay valid for the life
	// of the execution.
	seqs := tl.Seqs
	if n := len(seqs) - 1; n > 0 {
		block := make([]Region, n)
		tr.result.Regions = make([]*Region, n)
		for k := 0; k < n; k++ {
			block[k] = Region{
				TID:          tl.TID,
				Ordinal:      k,
				StartTS:      seqs[k].TS,
				EndTS:        seqs[k+1].TS,
				StartIdx:     seqs[k].Idx,
				EndIdx:       seqs[k+1].Idx,
				StartKind:    seqs[k].Kind,
				EndKind:      seqs[k+1].Kind,
				StartSyscall: -1,
				SpawnChild:   -1,
				JoinTarget:   -1,
			}
			tr.result.Regions[k] = &block[k]
		}
	}
	return tr
}

// runRegion replays region's instruction range on this thread.
func (tr *threadReplayer) runRegion(region *Region) error {
	if region.StartIdx != tr.idx {
		return fmt.Errorf("replay: thread %d region %d starts at %d, replay is at %d",
			tr.log.TID, region.Ordinal, region.StartIdx, tr.idx)
	}
	region.StartCpu = tr.cpu
	tr.cur = region
	for tr.idx < region.EndIdx {
		out, f := machine.Step(&tr.cpu, tr.prog.Code, tr)
		if tr.err != nil {
			return tr.err
		}
		if f != nil {
			return fmt.Errorf("replay: thread %d faulted at idx %d during replay (%v); log inconsistent",
				tr.log.TID, tr.idx, f)
		}
		switch out {
		case machine.StepBlocked:
			return fmt.Errorf("replay: thread %d blocked at idx %d; replay must never block", tr.log.TID, tr.idx)
		case machine.StepHalt, machine.StepExited, machine.StepContinue:
			tr.idx++
		}
	}
	tr.cInstr.Add(region.EndIdx - region.StartIdx)
	tr.cur = nil
	return nil
}

// record appends an access to the current region.
func (tr *threadReplayer) record(a Access) {
	if tr.opts.SkipAccesses || tr.cur == nil {
		return
	}
	tr.cur.Accesses = append(tr.cur.Accesses, a)
}

// Load implements machine.Env with logged-value injection.
func (tr *threadReplayer) Load(addr uint64, atomic bool, pc int) (uint64, *machine.Fault) {
	var val uint64
	if atomic {
		tr.annotateOpening(addr)
	}
	if tr.loadPtr < len(tr.log.Loads) {
		rec := tr.log.Loads[tr.loadPtr]
		if rec.Idx == tr.idx && rec.Addr == addr {
			tr.loadPtr++
			tr.cLoadInj.Add(1)
			tr.mem[addr] = rec.Val
			val = rec.Val
			tr.record(Access{TID: tr.log.TID, Idx: tr.idx, PC: pc, Addr: addr, Val: val, Atomic: atomic})
			return val, nil
		}
	}
	v, ok := tr.mem[addr]
	if !ok {
		tr.err = fmt.Errorf("replay: thread %d idx %d loads unlogged address 0x%x",
			tr.log.TID, tr.idx, addr)
		return 0, &machine.Fault{Kind: machine.FaultInvalidOp, PC: pc, Addr: addr}
	}
	tr.record(Access{TID: tr.log.TID, Idx: tr.idx, PC: pc, Addr: addr, Val: v, Atomic: atomic})
	return v, nil
}

// Store implements machine.Env.
func (tr *threadReplayer) Store(addr, val uint64, atomic bool, pc int) *machine.Fault {
	tr.mem[addr] = val
	tr.record(Access{TID: tr.log.TID, Idx: tr.idx, PC: pc, Addr: addr, Val: val, IsWrite: true, Atomic: atomic})
	return nil
}

// annotateOpening records the opening sync instruction's effective
// address when the current instruction is the one that starts the region.
func (tr *threadReplayer) annotateOpening(addr uint64) {
	if tr.cur != nil && tr.idx == tr.cur.StartIdx {
		tr.cur.SyncAddr = addr
	}
}

// Lock implements machine.Env; replay never blocks because the region
// schedule already encodes the original acquisition order.
func (tr *threadReplayer) Lock(addr uint64, pc int) (bool, *machine.Fault) {
	tr.annotateOpening(addr)
	return false, nil
}

// Unlock implements machine.Env.
func (tr *threadReplayer) Unlock(addr uint64, pc int) *machine.Fault {
	tr.annotateOpening(addr)
	return nil
}

// Syscall implements machine.Env by injecting the recorded result instead
// of consulting a kernel.
func (tr *threadReplayer) Syscall(cpu *machine.Cpu, num int64, pc int) (machine.SysOutcome, *machine.Fault) {
	if tr.cur != nil && tr.idx == tr.cur.StartIdx {
		tr.cur.StartSyscall = num
	}
	switch num {
	case isa.SysExit:
		return machine.SysExited, nil
	case isa.SysPrint:
		tr.result.Output = append(tr.result.Output, int64(cpu.Regs[1]))
	}
	// All non-exit syscalls logged a result; inject it.
	if tr.sysPtr >= len(tr.log.SysRets) || tr.log.SysRets[tr.sysPtr].Idx != tr.idx {
		tr.err = fmt.Errorf("replay: thread %d idx %d missing syscall result for %s",
			tr.log.TID, tr.idx, isa.SyscallName(num))
		return machine.SysDone, &machine.Fault{Kind: machine.FaultInvalidOp, PC: pc}
	}
	rec := tr.log.SysRets[tr.sysPtr]
	tr.sysPtr++
	tr.cSysInj.Add(1)

	// Mirror heap effects into the global event list (schedule order) and
	// finish the opening-syscall annotations that need the result.
	switch num {
	case isa.SysAlloc:
		tr.exec.HeapEvents = append(tr.exec.HeapEvents, HeapEvent{Kind: HeapAlloc, Base: rec.Res, Size: max(cpu.Regs[1], 1)})
	case isa.SysFree:
		base := cpu.Regs[1]
		if size, ok := tr.exec.BlockAt(base, len(tr.exec.HeapEvents)); ok {
			tr.exec.HeapEvents = append(tr.exec.HeapEvents, HeapEvent{Kind: HeapFree, Base: base, Size: size})
		}
	case isa.SysSpawn:
		if tr.cur != nil && tr.idx == tr.cur.StartIdx {
			tr.cur.SpawnChild = int(int64(rec.Res))
		}
	case isa.SysJoin:
		if tr.cur != nil && tr.idx == tr.cur.StartIdx {
			tr.cur.JoinTarget = int(int64(cpu.Regs[1]))
		}
	}
	cpu.Regs[1] = rec.Res
	return machine.SysDone, nil
}
