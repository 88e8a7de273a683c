package hb

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
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
// Per-thread vector clocks (internal/vclock) are carried alongside the
// intervals: each region ticks its thread's clock, and a spawn joins the
// parent's clock into the child. Happens-before implies non-overlap, so
// the clock comparison is a sound prune that skips the window scan for
// ordered pairs (counted on detect.online.hb_pruned); it can never flip
// the verdict.
//
// A watermark sweep keeps the window bounded: once every closed region's
// end falls at or below the minimum open-region start across live
// threads, no future access can overlap it and its records are evicted.
type Online struct {
	prog  *isa.Program
	table *SiteTable
	reg   *obs.Registry

	stopOnRace bool
	stop       bool

	threads map[int]*onlineThread
	window  map[uint64][]onlineRec // addr -> live access records
	recs    int                    // total records across the window

	// pendingSpawn links a spawn edge: ThreadStarted(child, startTS)
	// arrives before the parent's Sequencer with ts == startTS, so the
	// child parks here until the parent's clock is known.
	pendingSpawn map[uint64]*onlineThread

	races      map[SitePair]struct{}
	raceOrder  []SitePair
	pcSeen     []bool // data-access PCs observed (atomic included)
	pcCount    int
	seqs       uint64 // sequencer events, drives the eviction sweep
	checked    uint64 // candidate pairs screened
	hbPruned   uint64 // pairs skipped because vector clocks ordered them
	evicted    uint64 // records reclaimed by watermark sweeps
	sweeps     uint64
	windowPeak int
}

// onlineRegion is one sequencing region: the half-open timestamp interval
// a thread executes between two of its sequencers. vc is the thread's
// vector clock for this region; it is mutated in place only between a
// child's ThreadStarted and its parent's spawn sequencer, before the
// child can execute an access.
type onlineRegion struct {
	tid   int
	start uint64
	end   uint64 // 0 while the region is open
	vc    vclock.VC
}

// onlineRec is one access record in the window: the oldest-region access
// of its (address, region, write-ness, pc) class. Later identical
// accesses in the same region are deduplicated away.
type onlineRec struct {
	reg     *onlineRegion
	pc      int
	isWrite bool
}

type onlineThread struct {
	tid   int
	cur   *onlineRegion
	ended bool
}

// sweepEvery is the eviction cadence in sequencer events. Sweeps are
// driven by event counts, never wall time, so runs remain deterministic.
const sweepEvery = 64

// maxOnlineRaces bounds the distinct site pairs retained for the report;
// the boolean verdict is unaffected once the cap is hit.
const maxOnlineRaces = 1024

// NewOnline builds an online detector for prog. reg may be nil (metrics
// off). stopOnRace makes StopRequested return true once a race is seen,
// which a machine polls at quantum boundaries (machine.Stopper).
func NewOnline(prog *isa.Program, reg *obs.Registry, stopOnRace bool) *Online {
	return &Online{
		prog:         prog,
		table:        Sites(prog),
		reg:          reg,
		stopOnRace:   stopOnRace,
		threads:      make(map[int]*onlineThread),
		window:       make(map[uint64][]onlineRec),
		pendingSpawn: make(map[uint64]*onlineThread),
		races:        make(map[SitePair]struct{}),
		pcSeen:       make([]bool, len(prog.Code)),
	}
}

// ThreadStarted implements machine.Observer. The child's first region
// opens at the spawn timestamp; its clock is completed when the parent's
// spawn sequencer (same timestamp) fires, before the child can run.
func (o *Online) ThreadStarted(t *machine.Thread, startTS uint64) {
	th := &onlineThread{tid: t.ID}
	vc := vclock.New(t.ID + 1).Tick(t.ID)
	th.cur = &onlineRegion{tid: t.ID, start: startTS, vc: vc}
	o.threads[t.ID] = th
	if startTS > 0 {
		o.pendingSpawn[startTS] = th
	}
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
// opens the next. A spawn sequencer additionally completes the parked
// child's clock with the parent's — taken *before* the parent ticks for
// its next region, so the parent's post-spawn regions stay concurrent
// with the child while everything up to the spawn happens-before it.
func (o *Online) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	th := o.threads[tid]
	if th == nil || th.ended {
		return
	}
	th.cur.end = ts
	if child, ok := o.pendingSpawn[ts]; ok && child.tid != tid {
		child.cur.vc = child.cur.vc.Join(th.cur.vc)
		delete(o.pendingSpawn, ts)
	}
	vc := th.cur.vc.Clone().Tick(tid)
	th.cur = &onlineRegion{tid: tid, start: ts, vc: vc}
	o.seqs++
	if o.seqs%sweepEvery == 0 {
		o.sweep()
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
	recs := o.window[addr]
	for i := range recs {
		rec := &recs[i]
		if rec.reg.tid == tid {
			continue
		}
		if !isWrite && !rec.isWrite {
			continue
		}
		o.checked++
		// Sound prune: an HB-ordered pair cannot overlap (the edge chain
		// only exists because the earlier region closed first).
		if rec.reg.vc.HappensBefore(cur.vc) {
			o.hbPruned++
			continue
		}
		// The decisive interval test. rec's region is either still open
		// (trivial overlap: both are running now) or closed at rec.end;
		// the current region began at cur.start and has no end yet, so
		// overlap reduces to cur.start < rec.end.
		if rec.reg.end != 0 && cur.start >= rec.reg.end {
			continue
		}
		o.foundRace(rec.pc, pc)
	}
	// Record this access unless an identical one from the same region is
	// already present: same region+pc+write-ness screens the same future
	// pairs, so duplicates add nothing.
	for i := range recs {
		rec := &recs[i]
		if rec.reg == cur && rec.pc == pc && rec.isWrite == isWrite {
			return
		}
	}
	o.window[addr] = append(recs, onlineRec{reg: cur, pc: pc, isWrite: isWrite})
	o.recs++
	if o.recs > o.windowPeak {
		o.windowPeak = o.recs
	}
}

func (o *Online) foundRace(pcA, pcB int) {
	sites := MakeSitePair(o.table.Site(pcA), o.table.Site(pcB))
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
	watermark := ^uint64(0)
	live := false
	for _, th := range o.threads {
		if th.ended {
			continue
		}
		live = true
		if th.cur.start < watermark {
			watermark = th.cur.start
		}
	}
	if !live {
		watermark = ^uint64(0)
	}
	for addr, recs := range o.window {
		kept := recs[:0]
		for _, rec := range recs {
			if rec.reg.end != 0 && rec.reg.end <= watermark {
				o.evicted++
				o.recs--
				continue
			}
			kept = append(kept, rec)
		}
		if len(kept) == 0 {
			delete(o.window, addr)
		} else {
			o.window[addr] = kept
		}
	}
}

// OnlineReport is the detector's summary after the run.
type OnlineReport struct {
	RaceFree bool
	Races    []SitePair // distinct racy site pairs, in discovery order
	Stopped  bool       // StopOnFirstRace truncated the run
	Checked  uint64     // candidate pairs screened
	HBPruned uint64     // pairs skipped by the vector-clock prune
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
	sort.Ints(pcs)
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
		Checked:  o.checked,
		HBPruned: o.hbPruned,
	}
	if r := o.reg; r != nil {
		r.Counter("detect.online.executions").Inc()
		r.Counter("detect.online.races").Add(uint64(len(o.races)))
		if rep.RaceFree {
			r.Counter("detect.online.race_free").Inc()
		}
		r.Counter("detect.online.pairs_checked").Add(o.checked)
		r.Counter("detect.online.hb_pruned").Add(o.hbPruned)
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
	return &trace.OnlineInfo{
		RaceFree: len(o.races) == 0,
		Races:    len(o.races),
		Stopped:  stopped,
		ObservedPCs: func() []int {
			if len(o.races) > 0 {
				// The full offline pass runs anyway; skip the copy.
				return nil
			}
			return o.ObservedPCs()
		}(),
	}
}
