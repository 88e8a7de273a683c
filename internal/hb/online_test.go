package hb_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// offlineSitePairs returns the offline detector's race identities for one
// recorded execution, sorted for set comparison.
func offlineSitePairs(t *testing.T, rep *hb.Report) []hb.SitePair {
	t.Helper()
	pairs := make([]hb.SitePair, 0, len(rep.Races))
	for _, race := range rep.Races {
		pairs = append(pairs, race.Sites)
	}
	sortPairs(pairs)
	return pairs
}

func sortPairs(pairs []hb.SitePair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}

// recordBoth records src once with the online detector attached and runs
// the offline detector over the same log.
func recordBoth(t *testing.T, src string, seed int64) (*hb.OnlineReport, *hb.Report) {
	t.Helper()
	prog, err := asm.Assemble("online", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, rep, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("Detect:true returned a nil online report")
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep, hb.Detect(exec)
}

// assertAgreement checks the online verdict — and the exact racy
// site-pair set — against the offline detector's report.
func assertAgreement(t *testing.T, label string, online *hb.OnlineReport, offline *hb.Report) {
	t.Helper()
	if online.RaceFree != (len(offline.Races) == 0) {
		t.Fatalf("%s: online race_free=%v but offline found %d races",
			label, online.RaceFree, len(offline.Races))
	}
	got := append([]hb.SitePair(nil), online.Races...)
	sortPairs(got)
	want := offlineSitePairs(t, offline)
	if len(got) != len(want) {
		t.Fatalf("%s: online saw %d racy site pairs, offline %d\nonline:  %v\noffline: %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: site pair %d differs: online %v offline %v", label, i, got[i], want[i])
		}
	}
}

const racyCounterSrc = `
.entry main
.word g 0
worker:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  sys exit
main:
  ldi r1, worker
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

const lockedCounterSrc = `
.entry main
.word g 0
.word mu 0
worker:
  ldi r2, mu
  lock [r2+0]
  ldi r4, g
  ld r3, [r4+0]
  addi r3, r3, 1
  st [r4+0], r3
  unlock [r2+0]
  sys exit
main:
  ldi r1, worker
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

const joinOrderedSrc = `
.entry main
.word g 0
worker:
  ldi r2, g
  ldi r3, 7
  st [r2+0], r3
  sys exit
main:
  ldi r1, worker
  sys spawn
  sys join
  ldi r2, g
  ld r3, [r2+0]
  halt
`

// TestOnlineAgreesWithOfflineHandwritten pins the verdict and the racy
// site-pair set on the canonical shapes: a racy counter, the same
// counter under a lock, and a spawn/join-ordered handoff.
func TestOnlineAgreesWithOfflineHandwritten(t *testing.T) {
	cases := []struct {
		name string
		src  string
		racy bool
	}{
		{"racy-counter", racyCounterSrc, true},
		{"locked-counter", lockedCounterSrc, false},
		{"join-ordered", joinOrderedSrc, false},
	}
	for _, tc := range cases {
		raced := false
		for seed := int64(1); seed <= 20; seed++ {
			online, offline := recordBoth(t, tc.src, seed)
			assertAgreement(t, tc.name, online, offline)
			raced = raced || !online.RaceFree
		}
		if raced != tc.racy {
			// Non-vacuousness: the racy counter must race under some
			// seed, and the synchronized shapes under none.
			t.Fatalf("%s: raced=%v across 20 seeds, want %v", tc.name, raced, tc.racy)
		}
	}
}

// TestOnlineAgreesWithOfflineGenerated sweeps progen-generated programs —
// every combination of workers/globals/locks/atomics the fuzz harness
// uses — and requires verdict and site-pair agreement on each.
func TestOnlineAgreesWithOfflineGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	raced, clean := 0, 0
	for trial := 0; trial < 64; trial++ {
		cfg := progen.BitsConfig(uint8(trial*4+1), r)
		src := progen.Generate(r, cfg)
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seed := int64(trial + 1)
		log, _, rep, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		offline := hb.Detect(exec)
		assertAgreement(t, src, rep, offline)
		if rep.RaceFree {
			clean++
		} else {
			raced++
		}
	}
	if raced == 0 || clean == 0 {
		t.Fatalf("sweep is vacuous: %d raced, %d race-free", raced, clean)
	}
}

// TestOnlineStopOnFirstRace checks the early-exit policy: the truncated
// log is valid, the offline detector confirms a race on it, and the
// machine stopped before retiring the full run.
func TestOnlineStopOnFirstRace(t *testing.T) {
	prog, err := asm.Assemble("stop", racyCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	var full uint64
	for seed := int64(1); seed <= 50; seed++ {
		_, res, rep, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RaceFree {
			continue
		}
		full = res.TotalSteps
		slog, sres, srep, err := record.Run(prog, machine.Config{Seed: seed},
			record.OnlineConfig{Detect: true, StopOnFirstRace: true}, nil)
		if err != nil {
			t.Fatalf("seed %d: stop-on-race recording failed validation: %v", seed, err)
		}
		if srep.RaceFree {
			t.Fatalf("seed %d: stop-on-race run missed the race the full run saw", seed)
		}
		if !sres.Stopped || !srep.Stopped {
			t.Fatalf("seed %d: stop requested but machine did not report stopping (res=%v rep=%v)",
				seed, sres.Stopped, srep.Stopped)
		}
		if sres.TotalSteps > full {
			t.Fatalf("seed %d: stopped run retired %d > full run %d", seed, sres.TotalSteps, full)
		}
		if slog.Online == nil || slog.Online.RaceFree {
			t.Fatalf("seed %d: truncated log should carry a raced online annotation", seed)
		}
		exec, err := replay.Run(slog, replay.Options{})
		if err != nil {
			t.Fatalf("seed %d: truncated log failed to replay: %v", seed, err)
		}
		if len(hb.Detect(exec).Races) == 0 {
			t.Fatalf("seed %d: offline pass found no race in the stop-on-race log", seed)
		}
		return
	}
	t.Fatal("no seed raced; stop-on-race never exercised")
}

// TestOnlineMetricsPublished pins the detect.online.* counter names the
// docs and dashboards rely on.
func TestOnlineMetricsPublished(t *testing.T) {
	prog, err := asm.Assemble("metrics", racyCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, _, rep, err := record.Run(prog, machine.Config{Seed: 1}, record.OnlineConfig{Detect: true}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("detect.online.executions").Value() != 1 {
		t.Error("detect.online.executions not incremented")
	}
	if rep.RaceFree {
		t.Skip("seed 1 did not race; counter pinning below assumes a race")
	}
	if reg.Counter("detect.online.races").Value() == 0 {
		t.Error("detect.online.races not incremented on a racy run")
	}
	if reg.Counter("detect.online.pairs_checked").Value() == 0 {
		t.Error("detect.online.pairs_checked stayed zero")
	}
	if reg.Counter("detect.online.race_free").Value() != 0 {
		t.Error("detect.online.race_free incremented on a racy run")
	}
}

// TestSiteCacheBounded drives more distinct programs through the
// detector than the cache admits and checks it never exceeds its cap —
// the leak the bounded table replaced — while same-program reuse stays
// cached.
func TestSiteCacheBounded(t *testing.T) {
	hb.ResetSiteCacheForTest()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3*hb.MaxSitePrograms(); i++ {
		src := progen.Generate(r, progen.BitsConfig(uint8(i), r))
		prog, err := asm.Assemble("cache", src)
		if err != nil {
			t.Fatal(err)
		}
		log, _, _, err := record.Run(prog, machine.Config{Seed: int64(i + 1)}, record.OnlineConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hb.Detect(exec)
		if got := hb.SiteCacheSizeForTest(); got > hb.MaxSitePrograms() {
			t.Fatalf("after %d programs the site cache holds %d > cap %d", i+1, got, hb.MaxSitePrograms())
		}
	}
	if got := hb.SiteCacheSizeForTest(); got != hb.MaxSitePrograms() {
		t.Fatalf("cache should sit at its cap after churn, holds %d", got)
	}
	// Reuse: analyzing the same program again must not grow the cache.
	before := hb.SiteCacheSizeForTest()
	prog, err := asm.Assemble("cache-reuse", racyCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		log, _, _, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hb.Detect(exec)
	}
	if got := hb.SiteCacheSizeForTest(); got != before {
		t.Fatalf("same-program reuse changed the cache size: %d -> %d", before, got)
	}
	hb.ResetSiteCacheForTest()
}

// scanOnline is the reference the class-compressed window is checked
// against: the straightforward on-the-fly scan that keeps one record per
// (region, pc, kind) per address, screens every other-thread record on
// each access, and evicts by the same watermark. It discovers races in
// window order, so its race list fixes the discovery order hb.Online
// must reproduce.
//
// Attached after an hb.Online on the same machine, it also polls the
// detector after every access: the access ordinal at which each side saw
// its first race must match (StopOnFirstRace truncates there), and no
// address may ever hold more than 2 × threads × distinct-PCs records.
type scanOnline struct {
	t      *testing.T
	label  string
	table  *hb.SiteTable
	online *hb.Online

	threads map[int]*scanThread
	window  map[uint64][]scanRec
	seqs    uint64
	races   map[hb.SitePair]bool
	order   []hb.SitePair

	pcs                    map[int]bool // non-atomic data-access PCs seen
	accesses               uint64
	firstRace, onlineFirst uint64 // access ordinal of the first race, 0 = none
}

type scanRegion struct {
	tid        int
	start, end uint64 // end 0 while open
}

type scanRec struct {
	reg     *scanRegion
	pc      int
	isWrite bool
}

type scanThread struct {
	cur   *scanRegion
	ended bool
}

func newScanOnline(t *testing.T, label string, prog *isa.Program, online *hb.Online) *scanOnline {
	return &scanOnline{
		t: t, label: label, table: hb.Sites(prog), online: online,
		threads: map[int]*scanThread{},
		window:  map[uint64][]scanRec{},
		races:   map[hb.SitePair]bool{},
		pcs:     map[int]bool{},
	}
}

func (s *scanOnline) ThreadStarted(t *machine.Thread, startTS uint64) {
	s.threads[t.ID] = &scanThread{cur: &scanRegion{tid: t.ID, start: startTS}}
}

func (s *scanOnline) ThreadEnded(t *machine.Thread, endTS uint64) {
	if th := s.threads[t.ID]; th != nil && !th.ended {
		th.cur.end, th.ended = endTS, true
	}
}

func (s *scanOnline) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	th := s.threads[tid]
	if th == nil || th.ended {
		return
	}
	th.cur.end = ts
	th.cur = &scanRegion{tid: tid, start: ts}
	if s.seqs++; s.seqs%64 == 0 {
		s.sweep()
	}
}

func (s *scanOnline) sweep() {
	watermark := ^uint64(0)
	for _, th := range s.threads {
		if !th.ended && th.cur.start < watermark {
			watermark = th.cur.start
		}
	}
	for addr, recs := range s.window {
		kept := recs[:0]
		for _, rec := range recs {
			if rec.reg.end == 0 || rec.reg.end > watermark {
				kept = append(kept, rec)
			}
		}
		s.window[addr] = kept
	}
}

func (s *scanOnline) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	s.access(tid, pc, addr, atomic, false)
}

func (s *scanOnline) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	s.access(tid, pc, addr, atomic, true)
}

func (s *scanOnline) SyscallRet(tid int, idx uint64, res uint64) {}

func (s *scanOnline) access(tid, pc int, addr uint64, atomic, isWrite bool) {
	s.accesses++
	if !atomic {
		s.scan(tid, pc, addr, isWrite)
	}
	if s.onlineFirst == 0 && s.online.Raced() {
		s.onlineFirst = s.accesses
	}
	n := hb.OnlineWindowLenForTest(s.online, addr)
	if bound := 2 * len(s.threads) * len(s.pcs); n > bound {
		s.t.Fatalf("%s: address %#x holds %d online records > 2 x %d threads x %d PCs",
			s.label, addr, n, len(s.threads), len(s.pcs))
	}
}

func (s *scanOnline) scan(tid, pc int, addr uint64, isWrite bool) {
	s.pcs[pc] = true
	th := s.threads[tid]
	if th == nil {
		return
	}
	cur := th.cur
	recs := s.window[addr]
	for _, rec := range recs {
		if rec.reg.tid == tid || (!isWrite && !rec.isWrite) {
			continue
		}
		if rec.reg.end != 0 && cur.start >= rec.reg.end {
			continue
		}
		sites := hb.MakeSitePair(s.table.Site(rec.pc), s.table.Site(pc))
		if !s.races[sites] && len(s.order) < 1024 {
			s.races[sites] = true
			s.order = append(s.order, sites)
			if s.firstRace == 0 {
				s.firstRace = s.accesses
			}
		}
	}
	for _, rec := range recs {
		if rec.reg == cur && rec.pc == pc && rec.isWrite == isWrite {
			return
		}
	}
	s.window[addr] = append(recs, scanRec{reg: cur, pc: pc, isWrite: isWrite})
}

// compareWithScan runs prog once with hb.Online and the reference scan
// attached side by side and requires the same races in the same
// discovery order, the same verdict, and the same first-race step. It
// reports whether the run raced.
func compareWithScan(t *testing.T, label string, prog *isa.Program, cfg machine.Config) bool {
	t.Helper()
	online := hb.NewOnline(prog, nil, false)
	ref := newScanOnline(t, label, prog, online)
	cfg.Observer = machine.NewMultiObserver(online, ref)
	m, err := machine.New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	rep := online.Report(res.Stopped)
	if rep.RaceFree != (len(ref.order) == 0) {
		t.Fatalf("%s: online race_free=%v, reference scan found %d races", label, rep.RaceFree, len(ref.order))
	}
	if !slices.Equal(rep.Races, ref.order) {
		t.Fatalf("%s: race lists differ\nonline:    %v\nreference: %v", label, rep.Races, ref.order)
	}
	if ref.onlineFirst != ref.firstRace {
		t.Fatalf("%s: first race at access %d online, %d in the reference", label, ref.onlineFirst, ref.firstRace)
	}
	return !rep.RaceFree
}

// classOrderSrc makes the discovery order of one access depend on a
// class's older regions. u stores to g at A, then in its next region at
// B and again at A; v (after a sequencer) and w (without one) then store
// to g. A per-region scan meets u's A record from the first region
// before B only when the storing region overlaps that first region, so
// the order in which v and w discover their two site pairs depends on
// how far u had got when their regions opened; across seeds, both
// orders occur.
const classOrderSrc = `
.entry main
.word g 0
u:
  ldi r2, g
  ldi r3, 1
  ldi r5, 2
u_loop:
  st [r2+0], r3
  addi r5, r5, -1
  beq r5, r0, u_spin
  sys sysnop
  st [r2+0], r3
  jmp u_loop
u_spin:
  ldi r6, 40
u_wait:
  addi r6, r6, -1
  bne r6, r0, u_wait
  sys exit
v:
  ldi r2, g
  ldi r3, 2
  ldi r6, 6
v_wait:
  addi r6, r6, -1
  bne r6, r0, v_wait
  sys sysnop
  st [r2+0], r3
  sys exit
w:
  ldi r2, g
  ldi r3, 3
  ldi r6, 6
w_wait:
  addi r6, r6, -1
  bne r6, r0, w_wait
  st [r2+0], r3
  sys exit
main:
  ldi r1, u
  sys spawn
  mov r6, r1
  ldi r1, v
  sys spawn
  mov r7, r1
  ldi r1, w
  sys spawn
  mov r8, r1
  mov r1, r8
  sys join
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

// joinBlockedSrc has main wait in join while its worker stores to 512
// distinct words, one region each. Main's region before the join stays
// open the whole time, but main makes no access in it.
const joinBlockedSrc = `
.entry main
.word g 0
.space buf 512
worker:
  ldi r2, buf
  ldi r5, 512
w_loop:
  st [r2+0], r5
  addi r2, r2, 1
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, w_loop
  sys exit
main:
  ldi r2, g
  st [r2+0], r0
  ldi r1, worker
  sys spawn
  sys join
  halt
`

// TestOnlineWatermarkSkipsBlockedThreads checks that a thread blocked in
// join does not hold the eviction watermark at its open region's start:
// the worker's closed regions must leave the window as it goes, instead
// of all 512 records staying until the join returns.
func TestOnlineWatermarkSkipsBlockedThreads(t *testing.T) {
	prog, err := asm.Assemble("online", joinBlockedSrc)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		reg := obs.NewRegistry()
		_, _, rep, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true}, reg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.RaceFree {
			t.Fatalf("seed %d: races %v in a race-free program", seed, rep.Races)
		}
		// The watermark is refreshed every 64 sequencers, so about that
		// many worker records can be live between walks.
		if peak := reg.Gauge("detect.online.window_peak").Value(); peak > 128 {
			t.Fatalf("seed %d: window peaked at %.0f records; the blocked main thread held the watermark", seed, peak)
		}
		if ev := reg.Counter("detect.online.evicted").Value(); ev < 256 {
			t.Fatalf("seed %d: only %d records evicted", seed, ev)
		}
	}
}

// TestOnlineMatchesWindowScan pins the class-compressed window against
// the per-region scan it replaced, on handwritten shapes, progen
// programs, and the suite's long and racy scenarios.
func TestOnlineMatchesWindowScan(t *testing.T) {
	raced, clean := 0, 0
	tally := func(r bool) {
		if r {
			raced++
		} else {
			clean++
		}
	}
	for name, src := range map[string]string{
		"racy-counter": racyCounterSrc, "locked-counter": lockedCounterSrc, "join-ordered": joinOrderedSrc,
		"class-order":  classOrderSrc,
		"join-blocked": joinBlockedSrc,
	} {
		prog, err := asm.Assemble("online", src)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			tally(compareWithScan(t, fmt.Sprintf("%s seed %d", name, seed), prog, machine.Config{Seed: seed}))
		}
	}
	r := rand.New(rand.NewSource(20261018))
	for trial := 0; trial < 256; trial++ {
		src := progen.Generate(r, progen.BitsConfig(uint8(trial), r))
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tally(compareWithScan(t, src, prog, machine.Config{Seed: int64(trial + 1)}))
	}
	names := []string{"browse", "service", "exec01", "exec05", "exec09", "exec13", "exec18"}
	for _, name := range names {
		s, err := workloads.FindScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := s.Program()
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 2; k++ {
			cfg := s.Config()
			cfg.Seed += k
			tally(compareWithScan(t, fmt.Sprintf("%s seed %d", name, cfg.Seed), prog, cfg))
		}
	}
	if raced == 0 || clean == 0 {
		t.Fatalf("comparison is vacuous: %d raced, %d race-free", raced, clean)
	}
}
