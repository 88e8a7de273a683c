package replay

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/trace"
)

// ThreadState is a point-in-time per-thread state answered from a log.
type ThreadState struct {
	Cpu  machine.Cpu
	View map[uint64]uint64 // the thread's reconstructible memory view
}

// ThreadStateAt replays thread tid up to (exactly) idx retired
// instructions and returns its state. When the log carries key frames
// (record.OnlineConfig.KeyFrameInterval), replay starts from the nearest
// frame at or before idx instead of instruction zero — iDNA's mid-log
// resume.
//
// The query is purely per-thread: no other thread's log is consulted,
// which is exactly the self-containedness property of iDNA logs.
func ThreadStateAt(log *trace.Log, tid int, idx uint64) (*ThreadState, error) {
	tl := log.Thread(tid)
	if tl == nil {
		return nil, fmt.Errorf("replay: no thread %d in log", tid)
	}
	if idx > tl.Retired {
		return nil, fmt.Errorf("replay: thread %d retired %d instructions, asked for %d",
			tid, tl.Retired, idx)
	}

	// Scratch execution: per-thread replay does not need the region
	// schedule, but the replayer records heap events into its exec.
	exec := &Execution{Log: log, Prog: log.Prog, FinalMem: make(map[uint64]uint64)}
	tr := newThreadReplayer(log.Prog, tl, exec, Options{SkipAccesses: true})

	// Resume from the nearest key frame at or before idx.
	frames := tl.KeyFrames
	at := sort.Search(len(frames), func(i int) bool { return frames[i].Idx > idx })
	if at > 0 {
		kf := frames[at-1]
		tr.cpu.PC = kf.PC
		tr.cpu.Regs = kf.Regs
		tr.idx = kf.Idx
		tr.mem = make(map[uint64]uint64, len(kf.View))
		for _, v := range kf.View {
			tr.mem[v.Addr] = v.Val
		}
		tr.loadPtr = sort.Search(len(tl.Loads), func(i int) bool { return tl.Loads[i].Idx >= kf.Idx })
		tr.sysPtr = sort.Search(len(tl.SysRets), func(i int) bool { return tl.SysRets[i].Idx >= kf.Idx })
	}

	for tr.idx < idx {
		out, f := machine.Step(&tr.cpu, log.Prog.Code, tr)
		if tr.err != nil {
			return nil, tr.err
		}
		if f != nil {
			return nil, fmt.Errorf("replay: thread %d faulted at idx %d (%v); log inconsistent", tid, tr.idx, f)
		}
		switch out {
		case machine.StepBlocked:
			return nil, fmt.Errorf("replay: thread %d blocked at idx %d", tid, tr.idx)
		default:
			tr.idx++
		}
	}
	return &ThreadState{Cpu: tr.cpu, View: tr.mem}, nil
}
