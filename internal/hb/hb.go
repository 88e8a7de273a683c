// Package hb finds data races in a replayed execution.
//
// The primary detector (Detect) is the paper's algorithm: two memory
// operations race when they execute in overlapping sequencing regions of
// different threads, touch the same address, at least one is a write, and
// neither is a lock-prefixed access. Region overlap is exactly "no
// sequencer orders the two operations", so the detector reports no false
// positives with respect to the recorded execution.
//
// DetectVC is the vector-clock ablation: it tracks the true happens-before
// partial order induced by spawn/join, lock release→acquire, and atomic
// operations, and flags conflicting accesses in concurrent regions. It can
// report races between regions whose timestamp intervals happen to be
// disjoint even though no synchronization separates them — pairs the
// interval test misses (DESIGN.md, ablation A1).
package hb

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// SitePair is the unordered static identity of a race: the two instruction
// sites, ordered lexicographically so the same race keys identically in
// every scenario.
type SitePair struct {
	A, B string
}

// MakeSitePair normalizes the order of two sites.
func MakeSitePair(x, y string) SitePair {
	if y < x {
		x, y = y, x
	}
	return SitePair{A: x, B: y}
}

func (p SitePair) String() string { return p.A + " <-> " + p.B }

// Less orders site pairs lexicographically, the order reports list
// races in.
func (p SitePair) Less(q SitePair) bool { return p.A < q.A || (p.A == q.A && p.B < q.B) }

// Instance is one dynamic occurrence of a race: a specific pair of
// conflicting accesses in a specific pair of overlapping regions. First is
// the access from the region scheduled earlier; the recorded ("original")
// order is approximated as First-then-Second, and the classifier replays
// both orders regardless.
type Instance struct {
	First, Second    replay.Access
	RegionA, RegionB *replay.Region // regions of First and Second respectively
	Addr             uint64
}

// Race is a unique static data race with all its observed instances.
type Race struct {
	Sites     SitePair
	Instances []Instance
}

// Report is the detector output for one execution.
type Report struct {
	Races          []*Race
	TotalInstances int

	// index maps sites to races, built by the detector (or lazily on the
	// first Race call for hand-assembled reports) so per-candidate joins —
	// the static cross-validation calls Race once per candidate — cost one
	// map lookup instead of a linear scan over every race.
	index map[SitePair]*Race
}

// Race returns the race with the given site pair, or nil. The first call
// on a report whose index is unbuilt builds it, so Race is not safe for
// concurrent first use with hand-assembled reports (detector-built
// reports come pre-indexed).
func (r *Report) Race(sites SitePair) *Race {
	if r.index == nil {
		r.index = make(map[SitePair]*Race, len(r.Races))
		for _, race := range r.Races {
			r.index[race.Sites] = race
		}
	}
	return r.index[sites]
}

// Detect runs the paper's region-overlap detector over exec.
func Detect(exec *replay.Execution) *Report {
	return DetectIndex(NewIndex(exec), nil)
}

// DetectIndex is Detect over an already-built index, for callers that
// share one index across several detectors. A non-nil reg receives the
// detect.* counters (addresses indexed, region pairs examined vs.
// conflicting, races and instances found); nil is off.
func DetectIndex(x *Index, reg *obs.Registry) *Report {
	return detect(x, func(a, b *replay.Region) bool { return a.Overlaps(b) }, true, reg)
}

// detect is the shared conflict search, parameterized by the concurrency
// test on region pairs. It compares every pair of an address's region
// groups, or with sweep, sweeps them as intervals: groups arrive in
// StartTS order, so once a later group starts at or after the current
// one's end, no group after it overlaps the current one either. Only the
// interval test may sweep; clock order is not interval order. Instance
// dedup is a linear scan over the handful of site pairs one region pair
// can emit (no global map churn).
func detect(x *Index, concurrent func(a, b *replay.Region) bool, sweep bool, reg *obs.Registry) *Report {
	races := make(map[SitePair]*Race)
	total := 0
	var pairsExamined, pairsConflicting uint64

	// Scratch reused across addresses: the region groups and the
	// per-region-pair site dedup list. Site strings come from the shared
	// per-program table (sites.go), keeping the hot pair loops free of fmt
	// work.
	var scratch GroupScratch
	var emitted []SitePair

	for ai, addr := range x.Addrs {
		groups := x.Groups(ai, &scratch)
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				ga, gb := &groups[i], &groups[j]
				pairsExamined++
				if sweep && gb.Reg.StartTS >= ga.Reg.EndTS {
					break
				}
				if ga.Reg.TID == gb.Reg.TID || !concurrent(ga.Reg, gb.Reg) {
					continue
				}
				pairsConflicting++
				// One instance per (site pair, region pair, address):
				// emitted holds this pair's site pairs for the dedup scan.
				emitted = emitted[:0]
				ga.Conflicts(gb, func(a, b replay.Access) {
					sites := MakeSitePair(x.Site(a.PC), x.Site(b.PC))
					for _, e := range emitted {
						if e == sites {
							return
						}
					}
					emitted = append(emitted, sites)
					race := races[sites]
					if race == nil {
						race = &Race{Sites: sites}
						races[sites] = race
					}
					race.Instances = append(race.Instances, Instance{
						First: a, Second: b, RegionA: ga.Reg, RegionB: gb.Reg, Addr: addr,
					})
					total++
				})
			}
		}
	}

	if reg != nil {
		reg.Counter("detect.executions").Inc()
		reg.Counter("detect.addresses_indexed").Add(uint64(x.Indexed))
		reg.Counter("detect.addresses_screened_out").Add(uint64(x.Indexed - len(x.Addrs)))
		reg.Counter("detect.region_pairs_examined").Add(pairsExamined)
		reg.Counter("detect.region_pairs_conflicting").Add(pairsConflicting)
		reg.Counter("detect.races").Add(uint64(len(races)))
		reg.Counter("detect.instances").Add(uint64(total))
		reg.Emit("detect.races", uint64(len(races)))
	}
	rep := &Report{TotalInstances: total, index: races}
	for _, race := range races {
		rep.Races = append(rep.Races, race)
	}
	sort.Slice(rep.Races, func(i, j int) bool { return rep.Races[i].Sites.Less(rep.Races[j].Sites) })
	return rep
}

// DetectVC runs the vector-clock variant: regions get clocks from the
// synchronization structure, and conflicting accesses in VC-concurrent
// regions race. A non-nil reg receives the same detect.* counters as
// DetectIndex; nil is off.
func DetectVC(exec *replay.Execution, reg *obs.Registry) (*Report, error) {
	clocks, err := RegionClocks(exec)
	if err != nil {
		return nil, err
	}
	return detect(NewIndex(exec), func(a, b *replay.Region) bool {
		return clocks[a.Global].Concurrent(clocks[b.Global])
	}, false, reg), nil
}

// RegionClocks computes one vector clock per region (indexed by
// Region.Global) from the synchronization events the replay annotated:
// thread program order, spawn → child start, child end → join, unlock →
// later lock of the same address, and atomics on the same address in
// timestamp order.
func RegionClocks(exec *replay.Execution) ([]vclock.VC, error) {
	nThreads := len(exec.Threads)
	clocks := make([]vclock.VC, len(exec.Regions))
	threadVC := make(map[int]vclock.VC, nThreads)
	releaseVC := make(map[uint64]vclock.VC) // lock addr -> release clock
	atomicVC := make(map[uint64]vclock.VC)  // atomic addr -> last clock
	endVC := make(map[int]vclock.VC)        // tid -> final clock

	// Join the child's start with the parent's clock at spawn time. The
	// schedule guarantees the parent's pre-spawn region is processed
	// before the child's first region, so threadVC[parent] is exactly the
	// pre-spawn clock when the child's SeqStart region comes up.
	spawnParent := SpawnParents(exec)

	for _, reg := range exec.Regions {
		tid := reg.TID
		vc, started := threadVC[tid]
		if !started {
			vc = vclock.New(nThreads)
		}
		switch reg.StartKind {
		case trace.SeqStart:
			if parent, ok := spawnParent[tid]; ok {
				vc = vc.Join(threadVC[parent])
			}
		case trace.SeqLock:
			if rel, ok := releaseVC[reg.SyncAddr]; ok {
				vc = vc.Join(rel)
			}
		case trace.SeqUnlock:
			// The release carries everything before the unlock.
			releaseVC[reg.SyncAddr] = vc.Clone()
		case trace.SeqAtomic:
			// Acquire-release on the atomic's address.
			if prev, ok := atomicVC[reg.SyncAddr]; ok {
				vc = vc.Join(prev)
			}
		case trace.SeqSyscall:
			if reg.JoinTarget >= 0 {
				child, ok := endVC[reg.JoinTarget]
				if !ok {
					return nil, fmt.Errorf("hb: join of thread %d before its regions were processed", reg.JoinTarget)
				}
				vc = vc.Join(child)
			}
		}
		vc = vc.Tick(tid)
		if reg.StartKind == trace.SeqAtomic {
			atomicVC[reg.SyncAddr] = vc.Clone()
		}
		clocks[reg.Global] = vc.Clone()
		threadVC[tid] = vc
		if reg.EndKind == trace.SeqEnd {
			endVC[tid] = vc.Clone()
		}
	}
	return clocks, nil
}

// SpawnParents maps each spawned thread to its parent, identified by
// matching the child's start timestamp against spawn sequencers.
func SpawnParents(exec *replay.Execution) map[int]int {
	spawnParent := make(map[int]int)
	for _, tl := range exec.Log.Threads {
		for _, s := range tl.Seqs {
			if s.Kind == trace.SeqSyscall && s.Aux == isa.SysSpawn {
				for _, child := range exec.Log.Threads {
					if child.TID != tl.TID && child.StartTS == s.TS {
						spawnParent[child.TID] = tl.TID
					}
				}
			}
		}
	}
	return spawnParent
}
