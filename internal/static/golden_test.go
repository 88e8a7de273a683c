package static_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/static"
)

// The two shipped walk-through programs (examples/refcount and
// examples/statscounter), inlined: examples are package main, so the
// golden contract lives here. If an example's source drifts, update the
// copy and the pinned counts together.

// refcountSrc is the paper's Figure 2 reference-counting bug
// (examples/refcount).
const refcountSrc = `
.entry main
.word foo 0

worker:
  ldi r2, foo
  ld r4, [r2+0]       ; r4 = the shared object
rc_load:
  ld r5, [r4+0]       ; load refCnt
  addi r5, r5, -1
rc_store:
  st [r4+0], r5       ; store refCnt-1  (not atomic with the load!)
rc_check:
  ld r6, [r4+0]       ; re-read, as in Figure 2
  bne r6, r0, done
  mov r1, r4
  sys free            ; free(foo) when the count hits zero
done:
  ldi r1, 0
  sys exit

main:
  ldi r1, 1
  sys alloc           ; the object: one word holding the refcount
  mov r4, r1
  ldi r3, 2
  st [r4+0], r3       ; refCnt = 2 (one reference per thread)
  ldi r2, foo
  st [r2+0], r4
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, worker
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`

// statscounterSrc is the intentional approximate hit counter
// (examples/statscounter).
const statscounterSrc = `
.entry main
.word hits 0

; Two request handlers bump a hit counter without a lock: cheaper than
; synchronizing, and "about right" is good enough for a dashboard.
handler:
  ldi r5, 10
  mov r6, r1
hloop:
  ldi r2, hits
  ld r3, [r2+0]
  addi r3, r3, 1
hit_store:
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, hloop
  ldi r1, 0
  sys exit

main:
  ldi r1, handler
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, handler
  ldi r2, 1
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`

// crossOverSeeds runs the dynamic pipeline on src under every seed,
// merges the evidence, and cross-validates the static report against it.
func crossOverSeeds(t *testing.T, name, src string, seeds []int64) *static.CrossResult {
	t.Helper()
	prog, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	var results []*core.Result
	for _, seed := range seeds {
		res, err := core.Analyze(prog, machine.Config{Seed: seed}, record.OnlineConfig{}, classify.Options{})
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		results = append(results, res)
	}
	return static.CrossValidate(static.Analyze(prog, nil), core.CollectEvidence(results), nil)
}

// TestGoldenNoStaticFalseNegatives is the zero-FN contract on the shipped
// examples: every dynamic happens-before race has a static candidate
// (Missed empty), and the false-positive budget is pinned so a soundness
// regression (a lost race) and a precision regression (a flood of bogus
// candidates) both fail loudly.
func TestGoldenNoStaticFalseNegatives(t *testing.T) {
	cases := []struct {
		name       string
		src        string
		seeds      []int64
		candidates int // pinned: total static candidates
		matched    int // pinned: candidates confirmed by a dynamic race
		falsePos   int // pinned: refuted + unmatched (the FP budget)
	}{
		{"refcount", refcountSrc, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 3, 3, 0},
		{"statscounter", statscounterSrc, []int64{3, 4}, 2, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cross := crossOverSeeds(t, tc.name, tc.src, tc.seeds)
			for _, m := range cross.Missed {
				t.Errorf("dynamic race with no static candidate (FN): %s [%s]", m.Sites, m.Verdict)
			}
			falsePos := cross.Refuted + cross.Unmatched
			t.Logf("%s: candidates=%d matched=%d refuted=%d unmatched=%d missed=%d",
				tc.name, len(cross.Candidates), cross.Matched, cross.Refuted, cross.Unmatched, len(cross.Missed))
			if tc.candidates >= 0 && len(cross.Candidates) != tc.candidates {
				t.Errorf("candidates = %d, want %d", len(cross.Candidates), tc.candidates)
			}
			if tc.matched >= 0 && cross.Matched != tc.matched {
				t.Errorf("matched = %d, want %d", cross.Matched, tc.matched)
			}
			if tc.falsePos >= 0 && falsePos != tc.falsePos {
				t.Errorf("false positives = %d, want %d", falsePos, tc.falsePos)
			}
		})
	}
}
