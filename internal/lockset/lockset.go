// Package lockset implements an Eraser-style lockset race detector as the
// baseline the paper contrasts against (§2.2.2).
//
// Eraser checks the locking discipline: every shared variable should be
// protected by at least one lock held on every access. Per address it
// tracks a state machine (virgin → exclusive → shared → shared-modified)
// and a candidate lockset that is intersected with the accessor's held
// locks; a warning fires when the candidate set becomes empty in the
// shared-modified state. The discipline check is heuristic: correctly
// synchronized idioms that do not use locks (user-constructed
// synchronization, fork/join sharing, atomics-based protocols) produce
// false positives — which is exactly the contrast with the happens-before
// detector that the comparison benchmark quantifies.
package lockset

import (
	"sort"

	"repro/internal/replay"
	"repro/internal/trace"
)

// State is the Eraser per-address sharing state.
type State uint8

const (
	Virgin State = iota
	Exclusive
	Shared
	SharedModified
)

func (s State) String() string {
	switch s {
	case Virgin:
		return "virgin"
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case SharedModified:
		return "shared-modified"
	}
	return "state(?)"
}

// Warning is one reported locking-discipline violation.
type Warning struct {
	Addr      uint64
	Site      string // access that emptied the candidate lockset
	OtherSite string // an earlier access site to the same address from another thread
	Write     bool
	// Pos is the position of the warning access in the replayed schedule
	// (a global access index across all regions). Warnings are reported
	// in Pos order, so the first discipline violation of the execution
	// always leads and the output is byte-stable across runs — a map
	// iteration can never reorder it.
	Pos uint64
}

// Report is the detector output.
type Report struct {
	Warnings []*Warning
	// Checked counts addresses that reached a shared state.
	Checked int
}

// lockSet is a small immutable set of lock addresses.
type lockSet map[uint64]struct{}

func (ls lockSet) clone() lockSet {
	c := make(lockSet, len(ls))
	for k := range ls {
		c[k] = struct{}{}
	}
	return c
}

func (ls lockSet) intersect(o lockSet) lockSet {
	out := make(lockSet)
	for k := range ls {
		if _, ok := o[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

type addrState struct {
	state     State
	firstTid  int
	candidate lockSet
	lastSite  string
	warned    bool
}

// Detect runs Eraser over the replayed execution. Accesses are visited in
// region-schedule order; each thread's held-lock set is reconstructed from
// the regions' opening lock/unlock annotations.
func Detect(exec *replay.Execution) *Report {
	held := make(map[int]lockSet)
	states := make(map[uint64]*addrState)
	var warnings []*Warning

	pos := uint64(0)
	for _, reg := range exec.Regions {
		h := held[reg.TID]
		if h == nil {
			h = make(lockSet)
			held[reg.TID] = h
		}
		switch reg.StartKind {
		case trace.SeqLock:
			h[reg.SyncAddr] = struct{}{}
		case trace.SeqUnlock:
			delete(h, reg.SyncAddr)
		}
		for _, acc := range reg.Accesses {
			pos++
			if acc.Atomic {
				continue
			}
			visit(exec, states, &warnings, acc, h, pos)
		}
	}

	rep := &Report{Warnings: warnings}
	for _, st := range states {
		if st.state >= Shared {
			rep.Checked++
		}
	}
	// Trace-position order: the first empty-intersection access of the
	// execution reports first. (Addr breaks impossible ties defensively.)
	sort.Slice(rep.Warnings, func(i, j int) bool {
		if rep.Warnings[i].Pos != rep.Warnings[j].Pos {
			return rep.Warnings[i].Pos < rep.Warnings[j].Pos
		}
		return rep.Warnings[i].Addr < rep.Warnings[j].Addr
	})
	return rep
}

func visit(exec *replay.Execution, states map[uint64]*addrState, warnings *[]*Warning, acc replay.Access, h lockSet, pos uint64) {
	st := states[acc.Addr]
	if st == nil {
		st = &addrState{state: Virgin, firstTid: acc.TID}
		states[acc.Addr] = st
	}
	site := exec.Prog.SiteOf(acc.PC)

	switch st.state {
	case Virgin:
		st.state = Exclusive
		st.firstTid = acc.TID
	case Exclusive:
		if acc.TID == st.firstTid {
			break
		}
		// Second thread: initialize the candidate set and transition.
		st.candidate = h.clone()
		if acc.IsWrite {
			st.state = SharedModified
		} else {
			st.state = Shared
		}
	case Shared:
		st.candidate = st.candidate.intersect(h)
		if acc.IsWrite {
			st.state = SharedModified
		}
	case SharedModified:
		st.candidate = st.candidate.intersect(h)
	}

	if st.state == SharedModified && len(st.candidate) == 0 && !st.warned {
		st.warned = true
		*warnings = append(*warnings, &Warning{
			Addr:      acc.Addr,
			Site:      site,
			OtherSite: st.lastSite,
			Write:     acc.IsWrite,
			Pos:       pos,
		})
	}
	st.lastSite = site
}
