package vproc

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
)

// pipeline records src, replays it, detects races, and returns everything.
func pipeline(t *testing.T, src string, seed int64) (*replay.Execution, *hb.Report) {
	t.Helper()
	prog, err := asm.Assemble("vp", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exec, hb.Detect(exec)
}

// pairOf converts an hb instance into a vproc RacePair.
func pairOf(inst hb.Instance) RacePair {
	return RacePair{
		RegionA: inst.RegionA, RegionB: inst.RegionB,
		IdxA: inst.First.Idx, IdxB: inst.Second.Idx,
		PCA: inst.First.PC, PCB: inst.Second.PC,
		Addr: inst.Addr,
	}
}

// analyzeAll runs Analyze over every instance of every race and returns
// the multiset of outcomes keyed by the race's site-pair string.
func analyzeAll(t *testing.T, exec *replay.Execution, rep *hb.Report) map[string][]Result {
	t.Helper()
	out := make(map[string][]Result)
	for _, race := range rep.Races {
		for _, inst := range race.Instances {
			out[race.Sites.String()] = append(out[race.Sites.String()], Analyze(exec, pairOf(inst)))
		}
	}
	return out
}

const spawnTwoTail = `
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

func TestRedundantWriteIsNoStateChange(t *testing.T) {
	// Both workers store the value that is already there; racing write
	// pairs commute trivially.
	src := `
.entry main
.word g 5
worker:
  ldi r2, g
  ldi r3, 5
wstore:
  st [r2+0], r3
  ld r4, [r2+0]
  ldi r1, 0
  sys exit
` + spawnTwoTail
	checked := false
	for seed := int64(1); seed <= 15; seed++ {
		exec, rep := pipeline(t, src, seed)
		for sites, results := range analyzeAll(t, exec, rep) {
			if !strings.Contains(sites, "wstore") {
				continue
			}
			checked = true
			for _, res := range results {
				if res.Outcome != NoStateChange {
					t.Errorf("seed %d %s: outcome = %v (%s; diffs %v), want no-state-change",
						seed, sites, res.Outcome, res.FailReason, res.Diffs)
				}
			}
		}
	}
	if !checked {
		t.Fatal("redundant-write race never observed")
	}
}

func TestValueChangingRaceIsStateChange(t *testing.T) {
	// Worker 0 stores its arg+1 (1 or 2 -> distinct values); worker 1
	// loads into r4 and keeps it live to the end of the region: swapping
	// the order flips r4's live-out.
	src := `
.entry main
.word g 0
worker:
  ldi r2, g
  beq r1, r0, reader
  ldi r3, 77
wstore:
  st [r2+0], r3
  ldi r1, 0
  sys exit
reader:
wread:
  ld r4, [r2+0]
  ldi r1, 0
  sys exit
` + spawnTwoTail
	sawChange := false
	for seed := int64(1); seed <= 20 && !sawChange; seed++ {
		exec, rep := pipeline(t, src, seed)
		for sites, results := range analyzeAll(t, exec, rep) {
			if !strings.Contains(sites, "wstore") || !strings.Contains(sites, "reader") {
				continue
			}
			for _, res := range results {
				if res.Outcome == StateChange {
					sawChange = true
					foundReg := false
					for _, d := range res.Diffs {
						if d.Kind == "reg" {
							foundReg = true
						}
					}
					if !foundReg {
						t.Errorf("state change without register diff: %v", res.Diffs)
					}
				}
			}
		}
	}
	if !sawChange {
		t.Error("store/load race never produced a state change")
	}
}

func TestSpinFlagHandoffIsNoStateChange(t *testing.T) {
	// User-constructed synchronization (paper §5.4 category 1): the
	// producer sets a flag with a plain store; the consumer spins on a
	// plain load. The happens-before detector flags the pair, but in both
	// orders the consumer ends up past the loop with the same state, so
	// the classifier calls it potentially benign.
	src := `
.entry main
.word flag 0
.word data 0
producer:
  ldi r2, data
  ldi r3, 42
  st [r2+0], r3
  ldi r4, flag
  ldi r5, 1
pstore:
  st [r4+0], r5
  ldi r1, 0
  sys exit
consumer:
  ldi r4, flag
cspin:
  ld r5, [r4+0]
  beq r5, r0, cspin
  ldi r2, data
  ld r6, [r2+0]
  mov r1, r6
  sys print
  ldi r1, 0
  sys exit
main:
  ldi r1, producer
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, consumer
  ldi r2, 0
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`
	sawFlagRace := false
	for seed := int64(1); seed <= 20; seed++ {
		exec, rep := pipeline(t, src, seed)
		for sites, results := range analyzeAll(t, exec, rep) {
			if !strings.Contains(sites, "pstore") || !strings.Contains(sites, "cspin") {
				continue
			}
			sawFlagRace = true
			for _, res := range results {
				if res.Outcome != NoStateChange {
					t.Errorf("seed %d %s: outcome = %v (%s; %v), want no-state-change",
						seed, sites, res.Outcome, res.FailReason, res.Diffs)
				}
			}
		}
	}
	if !sawFlagRace {
		t.Error("flag handoff race never observed")
	}
}

func TestDivergenceIntoLockedPathIsReplayFailure(t *testing.T) {
	// Double-check idiom: if the alternative order flips the unsynchronized
	// first check, the thread heads into the lock-protected slow path —
	// a synchronization instruction the region never recorded. That must
	// surface as a replay failure (the paper's §4.2.1 limitation).
	src := `
.entry main
.word mu 0
.word inited 0
.word obj 0
worker:
  ldi r2, inited
dcheck:
  ld r3, [r2+0]
  bne r3, r0, ready
  ldi r4, mu
  lock [r4+0]
  ld r3, [r2+0]
  bne r3, r0, inlock
  ldi r5, obj
  ldi r6, 99
  st [r5+0], r6
  ldi r3, 1
dstore:
  st [r2+0], r3
inlock:
  ldi r4, mu
  unlock [r4+0]
ready:
  ldi r5, obj
  ld r7, [r5+0]
  ldi r1, 0
  sys exit
` + spawnTwoTail
	sawFailure := false
	for seed := int64(1); seed <= 30 && !sawFailure; seed++ {
		exec, rep := pipeline(t, src, seed)
		for sites, results := range analyzeAll(t, exec, rep) {
			if !strings.Contains(sites, "dcheck") && !strings.Contains(sites, "dstore") {
				continue
			}
			for _, res := range results {
				if res.Outcome == ReplayFailure {
					sawFailure = true
				}
			}
		}
	}
	if !sawFailure {
		t.Error("double-check divergence never produced a replay failure")
	}
}

func TestRefcountBugIsPotentiallyHarmful(t *testing.T) {
	// The paper's Figure 2: both threads decrement a reference count with
	// plain loads/stores and free the object when it reaches zero. Some
	// instance must classify as state change or replay failure.
	src := `
.entry main
.word foo 0
setup:
main:
  ldi r1, 1
  sys alloc
  mov r4, r1
  ldi r3, 2
  st [r4+0], r3      ; refCnt = 2
  ldi r2, foo
  st [r2+0], r4      ; foo = &obj
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
worker:
  ldi r2, foo
  ld r4, [r2+0]      ; r4 = obj
rcload:
  ld r5, [r4+0]      ; load refCnt
  addi r5, r5, -1
rcstore:
  st [r4+0], r5      ; store refCnt-1
rccheck:
  ld r6, [r4+0]      ; re-read
  bne r6, r0, done
  mov r1, r4
  sys free           ; free when count hits zero
done:
  ldi r1, 0
  sys exit
`
	harmful := false
	for seed := int64(1); seed <= 30 && !harmful; seed++ {
		exec, rep := pipeline(t, src, seed)
		for sites, results := range analyzeAll(t, exec, rep) {
			if !strings.Contains(sites, "rc") {
				continue
			}
			for _, res := range results {
				if res.Outcome == StateChange || res.Outcome == ReplayFailure {
					harmful = true
				}
			}
		}
	}
	if !harmful {
		t.Error("refcount bug never classified as potentially harmful")
	}
}

func TestNullDereferenceInAlternativeOrderFaults(t *testing.T) {
	// Worker 1 nulls a shared pointer; worker 0 loads the pointer and
	// dereferences it within the same region. In the alternative order the
	// load sees 0 and the dereference faults — a replay failure whose
	// reason names the fault.
	src := `
.entry main
.word p 0
main:
  ldi r1, 1
  sys alloc
  mov r4, r1
  ldi r3, 7
  st [r4+0], r3
  ldi r2, p
  st [r2+0], r4
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
worker:
  ldi r2, p
  beq r1, r0, reader
nuller:
  st [r2+0], r0      ; p = null
  ldi r1, 0
  sys exit
reader:
pload:
  ld r4, [r2+0]      ; load p
pderef:
  ld r5, [r4+0]      ; dereference
  ldi r1, 0
  sys exit
`
	sawFault := false
	for seed := int64(1); seed <= 30 && !sawFault; seed++ {
		exec, rep := pipeline(t, src, seed)
		for sites, results := range analyzeAll(t, exec, rep) {
			if !strings.Contains(sites, "nuller") || !strings.Contains(sites, "pload") {
				continue
			}
			for _, res := range results {
				if res.Outcome == ReplayFailure && strings.Contains(res.FailReason, "null-access") {
					sawFault = true
				}
			}
		}
	}
	if !sawFault {
		t.Error("null-pointer race never faulted in the alternative order")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{NoStateChange, StateChange, ReplayFailure} {
		if strings.HasPrefix(o.String(), "outcome(") {
			t.Errorf("outcome %d unnamed", o)
		}
	}
	if Outcome(9).String() != "outcome(9)" {
		t.Error("unknown outcome should render numerically")
	}
}

func TestDiffStrings(t *testing.T) {
	cases := []Diff{
		{Kind: "reg", TID: 1, Index: 4, Orig: 1, Alt: 2},
		{Kind: "pc", TID: 0, Orig: 3, Alt: 9},
		{Kind: "mem", TID: -1, Index: 0x1000, Orig: 5, Alt: 6},
		{Kind: "output", TID: -1, Orig: 1, Alt: 2},
		{Kind: "status", TID: 0, Orig: 0, Alt: 1},
	}
	for _, d := range cases {
		if d.String() == "" {
			t.Errorf("empty diff string for %+v", d)
		}
	}
}
