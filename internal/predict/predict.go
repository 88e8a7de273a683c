// Package predict proposes feasible data races beyond the observed
// interleaving — the prediction stage of ROADMAP item 2, in the spirit
// of RV-Predict and "Data Race Prediction for Inaccurate Traces".
//
// The strict happens-before detector (internal/hb) only reports access
// pairs whose sequencing regions actually overlapped in the recording;
// pairs the scheduler happened to separate in time are silently ordered
// even when no synchronization orders them. This pass re-examines the
// decoded trace in three stages:
//
//  1. Prefilter (lockset + weak happens-before): candidate pairs touch
//     the same address from different threads, at least one write,
//     neither atomic, with disjoint held-lock sets, and concurrent
//     under the *weak* happens-before order — program order plus
//     fork/join edges only. Dropping the unlock→lock and atomic edges
//     is what RV-Predict calls must-happen-before: a lock-induced
//     ordering is an accident of which thread won the lock, not a
//     constraint on reorderings.
//  2. Blocks: the region groups of the detector's access index
//     (hb.Index) condense into equivalence blocks — same region, same
//     PC, same address, same access kind (the held lockset is
//     constant within a region) — and one representative
//     pair per block pair stands in for the whole cross product,
//     collapsing the candidate space exactly the way the strict
//     detector dedups instances per (site pair, region pair, address).
//  3. Window solver: each surviving region pair must admit a concrete
//     witness schedule inside a bounded window of the recorded region
//     schedule. An overlapping pair is its own witness ("observed").
//     A separated pair (earlier, later) is feasible when the later
//     thread's intervening region chain can be hoisted to run directly
//     after the earlier racing region: every cross-thread weak-HB
//     predecessor of the chain (spawn of the thread, joined threads'
//     exits) already completed in the prefix, every lock the chain
//     holds is free at the hoist point, and no skipped region's write
//     feeds an address the chain reads — so the recorded values remain
//     valid along the witness and the replayed live-ins are trustworthy.
//
// Feasible candidates carry real recorded regions and accesses, so they
// flow into the dual-order classifier (internal/classify) unchanged:
// predicted pairs get live-in fingerprints exactly like observed ones
// and share the memo cache. Everything here is a deterministic function
// of the execution — candidate order never depends on worker count.
package predict

import (
	"slices"
	"sort"

	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// DefaultWindow is the region-schedule distance the solver searches
// when Options.Window is zero. Pairs further apart are not examined:
// the further the hoist, the weaker the claim that the recorded values
// still describe the reordered run (see docs/PREDICT.md).
const DefaultWindow = 64

// Options tunes a prediction pass.
type Options struct {
	// Window bounds the region-schedule distance between the two racing
	// regions of a reordered candidate (0 = DefaultWindow). Observed
	// (overlapping) pairs are exempt — they need no reordering.
	Window int
	// Metrics, when set, receives the predict.* counters. Nil is free.
	Metrics *obs.Registry
}

// Witness is the schedule evidence attached to a feasible candidate.
type Witness struct {
	// Kind is "observed" for pairs whose regions overlapped in the
	// recording, "reordered" for pairs the solver hoisted.
	Kind string
	// Regions lists the witness suffix as region Globals: the hoisted
	// chain of the later thread followed by the two racing regions. The
	// elided prefix is the recorded schedule up to (excluding) the first
	// racing region.
	Regions []int
}

// Candidate is one feasible predicted race pair. Instance points at the
// real recorded regions and accesses, so it classifies exactly like a
// detector instance.
type Candidate struct {
	Sites    hb.SitePair
	Instance hb.Instance
	Observed bool // the regions overlapped: the strict detector saw it too
	Witness  Witness
}

// Rejections counts window-solver verdicts against non-overlapping
// pairs, by the first constraint that failed.
type Rejections struct {
	Window  int // racing regions further apart than the window
	WeakHB  int // a chain region's fork/join predecessor is not in the prefix
	Lockset int // a chain region needs a lock another thread holds at the hoist point
	Value   int // a skipped write feeds an address the chain reads
}

// Report is the prediction pass output for one execution.
type Report struct {
	Candidates []*Candidate // feasible pairs, sorted by site pair then regions
	Window     int          // effective window

	PairsScreened int // block pairs that reached the prefilter
	Blocks        int // access blocks formed
	Rejected      Rejections
}

// NewSites returns the predicted site pairs the observed report does not
// contain — the races prediction found beyond the recorded interleaving.
func (r *Report) NewSites(observed *hb.Report) []hb.SitePair {
	var out []hb.SitePair
	for _, race := range r.NewReport(observed).Races {
		out = append(out, race.Sites)
	}
	return out
}

// NewReport assembles the predicted-new candidates (site pairs absent
// from the observed report) into an hb.Report the classifier consumes
// unchanged: instances point at real recorded regions, so dual-order
// replay, fingerprinting, and the memo cache all apply as-is. Candidates
// are sorted by site pair, so each race is one contiguous run and the
// races come out in report order.
func (r *Report) NewReport(observed *hb.Report) *hb.Report {
	rep := &hb.Report{}
	for _, c := range r.Candidates {
		if observed != nil && observed.Race(c.Sites) != nil {
			continue
		}
		if n := len(rep.Races); n == 0 || rep.Races[n-1].Sites != c.Sites {
			rep.Races = append(rep.Races, &hb.Race{Sites: c.Sites})
		}
		race := rep.Races[len(rep.Races)-1]
		race.Instances = append(race.Instances, c.Instance)
		rep.TotalInstances++
	}
	return rep
}

// regionInfo is the per-region precomputation the prefilter and the
// solver share.
type regionInfo struct {
	held   []uint64    // locks held during the region, sorted
	heldAt []lockOwner // global lock table at region start
	reads  []uint64    // addresses read (non-atomic), sorted
	writes []uint64    // addresses written (non-atomic), sorted
}

// writesTo reports whether the region wrote addr.
func (ri *regionInfo) writesTo(addr uint64) bool {
	_, ok := slices.BinarySearch(ri.writes, addr)
	return ok
}

type lockOwner struct {
	addr uint64
	tid  int
}

// Run predicts feasible races over a replayed execution. The observed
// report (may be nil) is only consulted for the Observed marking via
// region overlap — prediction is independent of it; callers use
// NewReport/NewSites to subtract the observed set.
func Run(exec *replay.Execution, opts Options) *Report {
	return RunIndex(hb.NewIndex(exec), opts)
}

// RunIndex is Run over an already-built access index: the addresses the
// strict detector's screen keeps, visited in ascending order, with each
// region group's accesses condensed into blocks.
func RunIndex(x *hb.Index, opts Options) *Report {
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	rep := &Report{Window: window}

	exec := x.Exec
	weak := weakClocks(exec)
	infos := precompute(exec)
	spawnReg, lastReg := forkJoinIndex(exec)

	var scratch hb.GroupScratch
	var emitted []hb.SitePair
	for ai, addr := range x.Addrs {
		groups := x.Groups(ai, &scratch)
		// Block representatives per (region, PC, kind): the first access
		// of each kind at each PC within a group stands in for the whole
		// block (held locksets are region-constant, so blocks never split
		// on them).
		for i := range groups {
			g := &groups[i]
			g.Reads, g.Writes = firstPerPC(g.Reads), firstPerPC(g.Writes)
			rep.Blocks += len(g.Reads) + len(g.Writes)
		}

		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				ga, gb := &groups[i], &groups[j]
				// Region-level prefilter: weak-HB concurrency and
				// disjoint held locksets hold for every block pair of
				// the two regions, so test them once.
				if ga.Reg.TID == gb.Reg.TID ||
					!weak[ga.Reg.Global].Concurrent(weak[gb.Reg.Global]) ||
					intersects(infos[ga.Reg.Global].held, infos[gb.Reg.Global].held) {
					continue
				}
				// Window feasibility is also a property of the region
				// pair (plus the racing address for the value check).
				wit, ok := feasible(exec, infos, spawnReg, lastReg, ga.Reg, gb.Reg, addr, window, &rep.Rejected)
				if !ok {
					continue
				}
				emitted = emitted[:0]
				ga.Conflicts(gb, func(a, b replay.Access) {
					rep.PairsScreened++
					sites := hb.MakeSitePair(x.Site(a.PC), x.Site(b.PC))
					for _, e := range emitted {
						if e == sites {
							return
						}
					}
					emitted = append(emitted, sites)
					rep.Candidates = append(rep.Candidates, &Candidate{
						Sites: sites,
						Instance: hb.Instance{
							First: a, Second: b, RegionA: ga.Reg, RegionB: gb.Reg, Addr: addr,
						},
						Observed: wit.Kind == "observed",
						Witness:  wit,
					})
				})
			}
		}
	}

	sort.SliceStable(rep.Candidates, func(i, j int) bool {
		a, b := rep.Candidates[i], rep.Candidates[j]
		if a.Sites != b.Sites {
			return a.Sites.Less(b.Sites)
		}
		if a.Instance.RegionA.Global != b.Instance.RegionA.Global {
			return a.Instance.RegionA.Global < b.Instance.RegionA.Global
		}
		if a.Instance.RegionB.Global != b.Instance.RegionB.Global {
			return a.Instance.RegionB.Global < b.Instance.RegionB.Global
		}
		return a.Instance.Addr < b.Instance.Addr
	})

	if reg := opts.Metrics; reg != nil {
		reg.Counter("predict.executions").Inc()
		reg.Counter("predict.blocks").Add(uint64(rep.Blocks))
		reg.Counter("predict.pairs_screened").Add(uint64(rep.PairsScreened))
		reg.Counter("predict.candidates").Add(uint64(len(rep.Candidates)))
		observed := 0
		for _, c := range rep.Candidates {
			if c.Observed {
				observed++
			}
		}
		reg.Counter("predict.candidates_observed").Add(uint64(observed))
		reg.Counter("predict.candidates_reordered").Add(uint64(len(rep.Candidates) - observed))
		reg.Counter("predict.rejected_window").Add(uint64(rep.Rejected.Window))
		reg.Counter("predict.rejected_weakhb").Add(uint64(rep.Rejected.WeakHB))
		reg.Counter("predict.rejected_lockset").Add(uint64(rep.Rejected.Lockset))
		reg.Counter("predict.rejected_value").Add(uint64(rep.Rejected.Value))
		reg.Emit("predict.candidates", uint64(len(rep.Candidates)))
	}
	return rep
}

// feasible decides whether the region pair (a, b) admits a witness
// schedule within the window, and returns it. Overlapping pairs are
// their own witness. Otherwise the later region's thread chain is
// hoisted to run directly after the earlier racing region; the checks
// are ordered cheapest-first and the first failure is counted.
func feasible(exec *replay.Execution, infos []regionInfo, spawnReg, lastReg map[int]int,
	a, b *replay.Region, addr uint64, window int, rej *Rejections) (Witness, bool) {
	if a.Global > b.Global {
		a, b = b, a
	}
	if a.Overlaps(b) {
		return Witness{Kind: "observed", Regions: []int{a.Global, b.Global}}, true
	}
	if b.Global-a.Global > window {
		rej.Window++
		return Witness{}, false
	}

	// chain: b's thread's regions strictly between a and b in the
	// schedule; skipped: everything else in that span (including a's own
	// thread's later regions — they are deferred past the racing pair).
	var chain, skipped []*replay.Region
	for g := a.Global + 1; g < b.Global; g++ {
		r := exec.Regions[g]
		if r.TID == b.TID {
			chain = append(chain, r)
		} else {
			skipped = append(skipped, r)
		}
	}

	hoisted := append(chain[:len(chain):len(chain)], b)

	// Weak-HB: every cross-thread predecessor of the hoisted chain (and
	// of b itself) must already have completed in the prefix — the spawn
	// of b's thread, and the exit of any thread a chain region joins.
	for _, c := range hoisted {
		if c.StartKind == trace.SeqStart {
			if g, ok := spawnReg[c.TID]; ok && g >= a.Global {
				rej.WeakHB++
				return Witness{}, false
			}
		}
		if c.JoinTarget >= 0 {
			if g, ok := lastReg[c.JoinTarget]; !ok || g >= a.Global {
				rej.WeakHB++
				return Witness{}, false
			}
		}
	}

	// Lockset: every lock the chain (or b) holds must be free — or held
	// by b's own thread — at the hoist point, i.e. in the recorded lock
	// table at a's region start.
	for _, c := range hoisted {
		for _, l := range infos[c.Global].held {
			for _, own := range infos[a.Global].heldAt {
				if own.addr == l && own.tid != b.TID {
					rej.Lockset++
					return Witness{}, false
				}
			}
		}
	}

	// Value consistency: hoisting must not change what any hoisted
	// region reads, or the recorded live-ins stop describing the witness
	// run. Chain regions ran after the skipped regions (and after a) in
	// the recording; in the witness they run before both, so no skipped
	// write — and no write of a — may feed a chain read. For b itself
	// the racing address is exempt: disagreement there is the race, and
	// the dual-order classifier replays both resolutions of it.
	for _, c := range hoisted {
		for _, rd := range infos[c.Global].reads {
			if (c != b || rd != addr) && infos[a.Global].writesTo(rd) {
				rej.Value++
				return Witness{}, false
			}
			for _, s := range skipped {
				if infos[s.Global].writesTo(rd) {
					rej.Value++
					return Witness{}, false
				}
			}
		}
	}

	wit := Witness{Kind: "reordered", Regions: make([]int, 0, len(chain)+2)}
	wit.Regions = append(wit.Regions, a.Global)
	for _, c := range hoisted {
		wit.Regions = append(wit.Regions, c.Global)
	}
	return wit, true
}

// weakClocks computes one vector clock per region under the weak
// happens-before order: thread program order plus spawn→child-start and
// child-end→join edges. Unlock→lock and atomic edges are deliberately
// absent — those orderings are scheduling accidents the solver is
// allowed to undo. Structurally this mirrors hb.RegionClocks minus the
// lock/atomic cases; overlapping regions are always weak-concurrent
// (fork/join-ordered regions cannot overlap), so prediction subsumes
// the strict detector's positives.
func weakClocks(exec *replay.Execution) []vclock.VC {
	nThreads := len(exec.Threads)
	clocks := make([]vclock.VC, len(exec.Regions))
	threadVC := make(map[int]vclock.VC, nThreads)
	endVC := make(map[int]vclock.VC)
	spawnParent := hb.SpawnParents(exec)

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
		case trace.SeqSyscall:
			if reg.JoinTarget >= 0 {
				if child, ok := endVC[reg.JoinTarget]; ok {
					vc = vc.Join(child)
				}
			}
		}
		vc = vc.Tick(tid)
		clocks[reg.Global] = vc.Clone()
		threadVC[tid] = vc
		if reg.EndKind == trace.SeqEnd {
			endVC[tid] = vc.Clone()
		}
	}
	return clocks
}

// precompute walks the schedule once and fills the per-region facts the
// prefilter and solver consult: the held-lock set during the region,
// the global lock table at region start, and the region's non-atomic
// read/write address sets.
func precompute(exec *replay.Execution) []regionInfo {
	infos := make([]regionInfo, len(exec.Regions))
	heldBy := map[int][]uint64{} // tid -> sorted held locks
	for _, reg := range exec.Regions {
		// Snapshot the global lock table before applying this region's
		// opening synchronization.
		var table []lockOwner
		for tid, locks := range heldBy {
			for _, l := range locks {
				table = append(table, lockOwner{addr: l, tid: tid})
			}
		}
		sort.Slice(table, func(i, j int) bool {
			if table[i].addr != table[j].addr {
				return table[i].addr < table[j].addr
			}
			return table[i].tid < table[j].tid
		})

		switch reg.StartKind {
		case trace.SeqLock:
			heldBy[reg.TID] = insertSorted(heldBy[reg.TID], reg.SyncAddr)
		case trace.SeqUnlock:
			heldBy[reg.TID] = removeSorted(heldBy[reg.TID], reg.SyncAddr)
		}

		info := &infos[reg.Global]
		info.heldAt = table
		info.held = append([]uint64(nil), heldBy[reg.TID]...)
		for _, acc := range reg.Accesses {
			if acc.Atomic {
				continue
			}
			if acc.IsWrite {
				info.writes = append(info.writes, acc.Addr)
			} else {
				info.reads = append(info.reads, acc.Addr)
			}
		}
		slices.Sort(info.reads)
		slices.Sort(info.writes)
		info.reads, info.writes = slices.Compact(info.reads), slices.Compact(info.writes)
	}
	return infos
}

// firstPerPC filters accs in place down to the first access at each PC:
// one representative per block.
func firstPerPC(accs []replay.Access) []replay.Access {
	out := accs[:0]
next:
	for _, a := range accs {
		for _, b := range out {
			if b.PC == a.PC {
				continue next
			}
		}
		out = append(out, a)
	}
	return out
}

// forkJoinIndex returns, per thread, the Global of the region whose
// opening spawn created it, and the Global of its final region (the
// completion a join waits for).
func forkJoinIndex(exec *replay.Execution) (spawnReg, lastReg map[int]int) {
	spawnReg = map[int]int{}
	lastReg = map[int]int{}
	for _, reg := range exec.Regions {
		if reg.SpawnChild >= 0 {
			spawnReg[reg.SpawnChild] = reg.Global
		}
		lastReg[reg.TID] = reg.Global
	}
	return spawnReg, lastReg
}

func insertSorted(s []uint64, v uint64) []uint64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []uint64, v uint64) []uint64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

func intersects(a, b []uint64) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
