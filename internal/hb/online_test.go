package hb_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
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
