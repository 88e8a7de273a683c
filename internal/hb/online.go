package hb

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Online is a machine.Observer that runs the paper's region-overlap race
// check *while the program executes*, in the style of Ronsse & De
// Bosschere's on-the-fly detectors, so a recording can end with a
// raced/race-free verdict and skip the offline decode+HB pass when clean.
//
// The decisive test is exactly the offline one: two data accesses race
// when their sequencing regions (the intervals between consecutive
// sequencer timestamps on each thread) overlap, the threads differ, at
// least one access is a write, and neither is atomic. Regions are
// maintained incrementally from the same observer callbacks the recorder
// consumes, so the online verdict matches Detect on the recorded log by
// construction:
//
//   - both regions still open  => their intervals overlap (each started
//     before the other has ended);
//   - stored region closed [s,e) vs the current access's open region
//     starting at c => they overlap iff c < e, because timestamps are
//     strictly increasing (the stored region began before the current one
//     ends, whenever the current one ends).
//
// Every offline pair is screened online when its later access executes,
// so "no race found online" and "no race found offline" coincide.
//
// Each address keeps one record per (thread, pc, read/write) class,
// pointing at the newest region in which that class accessed it; a
// repeat access from a later region overwrites the record instead of
// adding one. This loses nothing: a thread's regions are consecutive, so
// its newest region ends no earlier than any older one (or is still
// open), and an access that overlaps an older region of the class also
// overlaps the newest — with the same pc, hence the same site pair. A
// thread looping over shared data therefore costs one record per class,
// not one per region, and each access scans only the classes that could
// race with it.
//
// Races are reported in the order a per-region window scan would meet
// them: by the insertion ordinal of the oldest overlapping region of each
// class. Each record keeps its class's older regions that may still
// overlap (end and ordinal only), consulted by binary search when an
// access finds a site pair not yet reported — so the race list, and with
// it StopOnFirstRace truncation and the maxOnlineRaces cut, do not depend
// on the compression.
//
// A watermark sweep keeps the window bounded: once every closed region's
// end falls at or below the minimum open-region start across live
// threads, no future access can overlap it and its records are evicted.
// A thread blocked in lock or join does not hold the watermark back: it
// makes no access until the blocking instruction retires, and that
// retirement is a sequencer, so its next access lies in a region that
// starts after every region closed so far. The watermark is refreshed
// every sweepEvery sequencers, but the window is walked only once it has
// doubled since the last walk, so eviction costs O(1) amortized per
// record.
//
// Records live in one slab, chained per address; an evicted record's
// slot, with its older-region buffer, is reused by the next new class,
// so a window that has reached its peak size allocates no more records.
type Online struct {
	table *SiteTable
	reg   *obs.Registry

	stopOnRace bool
	stop       bool

	threads map[int]*onlineThread
	window  map[uint64]int32 // addr -> first of its class records in slab
	slab    []onlineRec      // class records, chained per address by next
	free    int32            // first unused slab slot, -1 if none
	recs    int              // class records across the window
	older   int              // older-region entries across the records
	swept   int              // recs+older the last sweep left
	nextSeq uint64           // insertion ordinal of the next class region

	races      map[SitePair]struct{}
	raceOrder  []SitePair
	pcSeen     []bool // data-access PCs observed (atomic included)
	pcCount    int
	seqs       uint64 // sequencer events, drives the eviction sweep
	watermark  uint64 // minimum open-region start, as of the last refresh
	checked    uint64 // candidate pairs screened
	evicted    uint64 // records reclaimed by watermark sweeps
	sweeps     uint64
	windowPeak int
}

// onlineRegion is one sequencing region: the half-open timestamp interval
// a thread executes between two of its sequencers.
type onlineRegion struct {
	start uint64
	end   uint64 // 0 while the region is open
}

// onlineRec is one access class in the window: thread tid accessed the
// address at pc with the given write-ness, most recently in region reg.
type onlineRec struct {
	reg     *onlineRegion
	seq     uint64      // insertion ordinal of the class's access in reg
	older   []regionSeq // earlier regions that may still overlap, oldest first
	next    int32       // next record of the address (or free slot), -1 at the end
	tid     int
	pc      int
	isWrite bool
}

// regionSeq is a closed region of a class: its end and the insertion
// ordinal of the class's access in it.
type regionSeq struct{ end, seq uint64 }

// firstOverlap returns the insertion ordinal of the class's oldest region
// that overlaps a region opened at start. Ends grow with the ordinal, so
// the overlapping regions are a suffix ending at the newest.
func (r *onlineRec) firstOverlap(start uint64) uint64 {
	i := sort.Search(len(r.older), func(i int) bool { return r.older[i].end > start })
	if i < len(r.older) {
		return r.older[i].seq
	}
	return r.seq
}

// freshRace is a site pair one access found before it was reported, keyed
// by the ordinal it is reported in.
type freshRace struct {
	seq   uint64
	sites SitePair
}

type onlineThread struct {
	cur   *onlineRegion
	m     *machine.Thread // the machine's thread, polled for blocking
	ended bool
}

// sweepEvery is the watermark refresh cadence in sequencer events. Sweeps
// are driven by event counts, never wall time, so runs remain
// deterministic.
const sweepEvery = 64

// maxOnlineRaces bounds the distinct site pairs retained for the report;
// the boolean verdict is unaffected once the cap is hit.
const maxOnlineRaces = 1024

// NewOnline builds an online detector for prog. reg may be nil (metrics
// off). stopOnRace makes StopRequested return true once a race is seen,
// which a machine polls at quantum boundaries (machine.Stopper).
func NewOnline(prog *isa.Program, reg *obs.Registry, stopOnRace bool) *Online {
	return &Online{
		table:      Sites(prog),
		reg:        reg,
		stopOnRace: stopOnRace,
		threads:    make(map[int]*onlineThread),
		window:     make(map[uint64]int32),
		free:       -1,
		races:      make(map[SitePair]struct{}),
		pcSeen:     make([]bool, len(prog.Code)),
	}
}

// ThreadStarted implements machine.Observer. The child's first region
// opens at the spawn timestamp.
func (o *Online) ThreadStarted(t *machine.Thread, startTS uint64) {
	o.threads[t.ID] = &onlineThread{cur: &onlineRegion{start: startTS}, m: t}
}

// ThreadEnded implements machine.Observer.
func (o *Online) ThreadEnded(t *machine.Thread, endTS uint64) {
	th := o.threads[t.ID]
	if th == nil || th.ended {
		return
	}
	th.cur.end = endTS
	th.ended = true
}

// Sequencer implements machine.Observer: it closes the current region and
// opens the next.
func (o *Online) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	th := o.threads[tid]
	if th == nil || th.ended {
		return
	}
	th.cur.end = ts
	th.cur = &onlineRegion{start: ts}
	o.seqs++
	if o.seqs%sweepEvery == 0 {
		o.watermark = ^uint64(0)
		for _, th := range o.threads {
			if !th.ended && !blocked(th.m.State) && th.cur.start < o.watermark {
				o.watermark = th.cur.start
			}
		}
		if o.recs+o.older >= 2*o.swept {
			o.sweep()
		}
	}
}

// Load implements machine.Observer.
func (o *Online) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	o.access(tid, pc, addr, atomic, false)
}

// Store implements machine.Observer.
func (o *Online) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	o.access(tid, pc, addr, atomic, true)
}

// SyscallRet implements machine.Observer.
func (o *Online) SyscallRet(tid int, idx uint64, res uint64) {}

// StopRequested implements machine.Stopper.
func (o *Online) StopRequested() bool { return o.stop }

// Raced reports whether any race has been observed so far. Safe to call
// mid-run (e.g. by a down-sampling key-frame recorder).
func (o *Online) Raced() bool { return len(o.races) > 0 }

func (o *Online) access(tid, pc int, addr uint64, atomic, isWrite bool) {
	if pc >= 0 && pc < len(o.pcSeen) && !o.pcSeen[pc] {
		o.pcSeen[pc] = true
		o.pcCount++
	}
	if atomic {
		// Lock-prefixed accesses never participate in a race; they also
		// need no record, since the region test ignores them entirely.
		return
	}
	th := o.threads[tid]
	if th == nil {
		return
	}
	cur := th.cur
	head, ok := o.window[addr]
	if !ok {
		head = -1
	}
	own := int32(-1)
	var fresh []freshRace
	for i := head; i >= 0; i = o.slab[i].next {
		rec := &o.slab[i]
		if rec.tid == tid {
			if rec.pc == pc && rec.isWrite == isWrite {
				own = i
			}
			continue
		}
		if !isWrite && !rec.isWrite {
			continue
		}
		o.checked++
		// The decisive interval test. rec's region is either still open
		// (trivial overlap: both are running now) or closed at rec.end;
		// the current region began at cur.start and has no end yet, so
		// overlap reduces to cur.start < rec.end.
		if rec.reg.end != 0 && cur.start >= rec.reg.end {
			continue
		}
		sites := MakeSitePair(o.table.Site(rec.pc), o.table.Site(pc))
		if _, ok := o.races[sites]; !ok {
			fresh = append(fresh, freshRace{seq: rec.firstOverlap(cur.start), sites: sites})
		}
	}
	if len(fresh) > 0 {
		// In the order a per-region window scan would have met them.
		slices.SortFunc(fresh, func(a, b freshRace) int { return cmp.Compare(a.seq, b.seq) })
		for _, f := range fresh {
			o.foundRace(f.sites)
		}
	}
	// This access becomes its class's newest region: it screens every
	// future pair an older region of the class would have.
	if own >= 0 {
		rec := &o.slab[own]
		if rec.reg != cur {
			if rec.reg.end > o.watermark {
				rec.older = append(rec.older, regionSeq{end: rec.reg.end, seq: rec.seq})
				o.older++
			}
			rec.reg, rec.seq = cur, o.nextSeq
			o.nextSeq++
		}
		return
	}
	i := o.free
	if i >= 0 {
		o.free = o.slab[i].next
	} else {
		i = int32(len(o.slab))
		o.slab = append(o.slab, onlineRec{})
	}
	o.slab[i] = onlineRec{reg: cur, seq: o.nextSeq, older: o.slab[i].older[:0], next: head, tid: tid, pc: pc, isWrite: isWrite}
	o.window[addr] = i
	o.nextSeq++
	o.recs++
	if o.recs > o.windowPeak {
		o.windowPeak = o.recs
	}
}

func (o *Online) foundRace(sites SitePair) {
	if _, ok := o.races[sites]; ok {
		return
	}
	if len(o.races) >= maxOnlineRaces {
		return
	}
	o.races[sites] = struct{}{}
	o.raceOrder = append(o.raceOrder, sites)
	if o.stopOnRace {
		o.stop = true
	}
	if o.reg != nil {
		o.reg.EmitLabeled("detect.online.race", sites.A+" <-> "+sites.B, uint64(len(o.races)))
	}
}

// sweep evicts records no future access can overlap: once a region's end
// is at or below every live thread's open-region start, any region that
// ever checks against it will start at or above that end.
func (o *Online) sweep() {
	o.sweeps++
	watermark := o.watermark
	for addr, head := range o.window {
		link := &head
		for i := head; i >= 0; i = *link {
			rec := &o.slab[i]
			if rec.reg.end != 0 && rec.reg.end <= watermark {
				o.evicted++
				o.recs--
				o.older -= len(rec.older)
				*link = rec.next
				*rec = onlineRec{older: rec.older[:0], next: o.free}
				o.free = i
				continue
			}
			dead := 0
			for dead < len(rec.older) && rec.older[dead].end <= watermark {
				dead++
			}
			if dead > 0 {
				rec.older = append(rec.older[:0], rec.older[dead:]...)
				o.older -= dead
			}
			link = &rec.next
		}
		if head < 0 {
			delete(o.window, addr)
		} else {
			o.window[addr] = head
		}
	}
	o.swept = o.recs + o.older
}

// blocked reports whether a thread in state s is waiting in lock or join,
// the only instructions that block (both are sequencers).
func blocked(s machine.ThreadState) bool {
	return s == machine.BlockedLock || s == machine.BlockedJoin
}

// OnlineReport is the detector's summary after the run.
type OnlineReport struct {
	RaceFree bool
	Races    []SitePair // distinct racy site pairs, in discovery order
	Stopped  bool       // StopOnFirstRace truncated the run
}

// ObservedPCs returns the sorted code indices that performed data
// accesses, for trace.OnlineInfo.
func (o *Online) ObservedPCs() []int {
	pcs := make([]int, 0, o.pcCount)
	for pc, seen := range o.pcSeen {
		if seen {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// Report finalizes the run: it publishes the detect.online.* metrics and
// returns the verdict. stopped says whether the machine actually ended
// early (the stop request is only polled at quantum boundaries).
func (o *Online) Report(stopped bool) *OnlineReport {
	rep := &OnlineReport{
		RaceFree: len(o.races) == 0,
		Races:    o.raceOrder,
		Stopped:  stopped,
	}
	if r := o.reg; r != nil {
		r.Counter("detect.online.executions").Inc()
		r.Counter("detect.online.races").Add(uint64(len(o.races)))
		if rep.RaceFree {
			r.Counter("detect.online.race_free").Inc()
		}
		r.Counter("detect.online.pairs_checked").Add(o.checked)
		r.Counter("detect.online.evicted").Add(o.evicted)
		r.Counter("detect.online.sweeps").Add(o.sweeps)
		r.Gauge("detect.online.window_peak").Set(float64(o.windowPeak))
		if stopped {
			r.Counter("detect.online.stopped").Inc()
		}
		r.Emit("detect.online.verdict", uint64(len(o.races)))
	}
	return rep
}

// Info converts the report into the trace.Log annotation consumed by the
// analysis fast path.
func (o *Online) Info(stopped bool) *trace.OnlineInfo {
	info := &trace.OnlineInfo{RaceFree: len(o.races) == 0, Races: len(o.races), Stopped: stopped}
	if info.RaceFree {
		// A raced run takes the full offline pass anyway; only the fast
		// path needs the sites.
		info.ObservedPCs = o.ObservedPCs()
	}
	return info
}
