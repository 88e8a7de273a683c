package static

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/isa"
)

func mustAssemble(t *testing.T, name, src string) *isa.Program {
	t.Helper()
	prog, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	return prog
}

// --- value lattice ---

func TestJoinLattice(t *testing.T) {
	g := addrKey{kind: akConcrete, base: 0x1000}
	vals := []value{bot, top, zero, con(7), {kind: vLoaded, c: 1, key: g},
		{kind: vHeap, c: 0, site: 3}, {kind: vStack}}
	for _, v := range vals {
		if join(bot, v) != v || join(v, bot) != v {
			t.Errorf("bot is not the identity for %+v", v)
		}
		if join(v, v) != v {
			t.Errorf("join not idempotent for %+v", v)
		}
		if join(top, v) != top || join(v, top) != top {
			t.Errorf("top does not absorb %+v", v)
		}
	}
	if join(con(1), con(2)) != top {
		t.Error("distinct constants must join to top")
	}
}

func TestBinopFolding(t *testing.T) {
	g := addrKey{kind: akConcrete, base: 0x1000}
	ptr := value{kind: vLoaded, c: 0, key: g}
	if got := binop(isa.OpAdd, con(3), con(4)); got != con(7) {
		t.Errorf("3+4 = %+v", got)
	}
	if got := binop(isa.OpAdd, ptr, con(2)); got.kind != vLoaded || got.c != 2 || got.key != g {
		t.Errorf("ptr+2 lost its shape: %+v", got)
	}
	if got := binop(isa.OpSub, ptr, con(1)); got.kind != vLoaded || got.c != -1 {
		t.Errorf("ptr-1 lost its shape: %+v", got)
	}
	if got := binop(isa.OpDiv, con(1), con(0)); got != top {
		t.Errorf("div by zero must be top, got %+v", got)
	}
	if got := binop(isa.OpMul, top, con(2)); got != top {
		t.Errorf("top*2 must be top, got %+v", got)
	}
	if got := immop(isa.OpAddi, con(5), -2); got != con(3) {
		t.Errorf("5-2 = %+v", got)
	}
}

func TestResolveAddr(t *testing.T) {
	g := addrKey{kind: akConcrete, base: 0x1000}
	cases := []struct {
		name    string
		base    value
		imm     int64
		key     addrKey
		private bool
	}{
		{"const data", con(0x1000), 2, addrKey{kind: akConcrete, base: 0x1002}, false},
		{"null guard", con(0), 1, addrKey{}, true},
		{"stack addr", con(int64(isa.StackBase)), 0, addrKey{}, true},
		{"stack value", value{kind: vStack}, 4, addrKey{}, true},
		{"one deref", value{kind: vLoaded, c: 1, key: g}, 2, addrKey{kind: akDeref, base: 0x1000, off: 3}, false},
		{"deep deref", value{kind: vLoaded, key: addrKey{kind: akDeref, base: 0x1000}}, 0, addrKey{}, false},
		{"heap", value{kind: vHeap, c: 1, site: 9}, 1, addrKey{kind: akHeap, base: 9, off: 2}, false},
		{"unknown", top, 0, addrKey{}, false},
	}
	for _, tc := range cases {
		key, private := resolveAddr(tc.base, tc.imm)
		if key != tc.key || private != tc.private {
			t.Errorf("%s: got (%+v, %v), want (%+v, %v)", tc.name, key, private, tc.key, tc.private)
		}
	}
}

// --- CFG ---

func TestCFGLoopAndBlocks(t *testing.T) {
	prog := mustAssemble(t, "cfg", `
.entry main
main:
  ldi r5, 3
loop:
  addi r5, r5, -1
  bne r5, r0, loop
  halt
`)
	c := buildCFG(prog, []int{prog.Entry})
	if len(c.blocks) < 3 {
		t.Fatalf("expected >=3 blocks, got %d", len(c.blocks))
	}
	for pc := range prog.Code {
		b := c.blocks[c.blockOf[pc]]
		if pc < b.start || pc >= b.end {
			t.Fatalf("blockOf[%d] inconsistent: block [%d,%d)", pc, b.start, b.end)
		}
	}
	// The loop body (addi/bne) must be marked cyclic; the halt must not.
	loopPC := prog.Symbols["loop"]
	if !c.blocks[c.blockOf[loopPC]].inCycle {
		t.Error("loop block not marked inCycle")
	}
	haltPC := len(prog.Code) - 1
	if c.blocks[c.blockOf[haltPC]].inCycle {
		t.Error("halt block wrongly marked inCycle")
	}
}

// --- end-to-end candidate behavior ---

const twoWorkerMain = `
main:
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

func TestLockedCounterHasNoCandidates(t *testing.T) {
	rep := Analyze(mustAssemble(t, "locked", `
.entry main
.word mu 0
.word total 0

worker:
  ldi r5, 3
wloop:
  ldi r3, mu
  lock [r3+0]
  ldi r2, total
  ld r4, [r2+0]
  addi r4, r4, 1
  st [r2+0], r4
  unlock [r3+0]
  addi r5, r5, -1
  bne r5, r0, wloop
  ldi r1, 0
  sys exit
`+twoWorkerMain), nil)
	if len(rep.Candidates) != 0 {
		t.Fatalf("consistently locked counter produced %d candidates: %+v",
			len(rep.Candidates), rep.Candidates)
	}
	if rep.Stats.Accesses == 0 {
		t.Error("locked accesses should still be collected (they are shared)")
	}
}

func TestUnlockedCounterIsAStatsCandidate(t *testing.T) {
	rep := Analyze(mustAssemble(t, "racy", `
.entry main
.word hits 0

worker:
  ldi r5, 3
wloop:
  ldi r2, hits
  ld r3, [r2+0]
  addi r3, r3, 1
wstore:
  st [r2+0], r3
  addi r5, r5, -1
  bne r5, r0, wloop
  ldi r1, 0
  sys exit
`+twoWorkerMain), nil)
	if len(rep.Candidates) == 0 {
		t.Fatal("unlocked counter produced no candidates")
	}
	found := false
	for _, c := range rep.Candidates {
		if c.Addr != "hits" {
			t.Errorf("candidate on unexpected cell %q", c.Addr)
		}
		if c.Hint == HintStatsCounter {
			found = true
		}
	}
	if !found {
		t.Errorf("load-increment-store counter not hinted stats-counter: %+v", rep.Candidates)
	}
	// Entry bookkeeping: one root plus a worker spawned from two sites.
	if len(rep.Entries) != 2 {
		t.Fatalf("entries = %+v", rep.Entries)
	}
	if !rep.Entries[0].Root && !rep.Entries[1].Root {
		t.Error("no root entry recorded")
	}
	for _, e := range rep.Entries {
		if e.Label == "worker" && e.SpawnSites != 2 {
			t.Errorf("worker spawn sites = %d, want 2", e.SpawnSites)
		}
	}
}

func TestForkJoinOrderingFilter(t *testing.T) {
	rep := Analyze(mustAssemble(t, "ordered", `
.entry main
.word g 0

worker:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  ldi r1, 0
  sys exit

main:
  ldi r2, g
  ldi r3, 7
  st [r2+0], r3
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r8, r1
  mov r1, r8
  sys join
  ldi r2, g
  ld r4, [r2+0]
  halt
`), nil)
	if len(rep.Candidates) != 0 {
		t.Fatalf("fork/join-ordered program produced candidates: %+v", rep.Candidates)
	}
	if rep.Stats.FilteredOrdered < 2 {
		t.Errorf("FilteredOrdered = %d, want >=2 (main's pre-spawn store and post-join load)",
			rep.Stats.FilteredOrdered)
	}
}

func TestHeapEscapeThroughGlobal(t *testing.T) {
	rep := Analyze(mustAssemble(t, "heap", `
.entry main
.word obj 0

worker:
  ldi r2, obj
  ld r4, [r2+0]
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  ldi r1, 0
  sys exit

main:
  ldi r1, 1
  sys alloc
  mov r4, r1
  ldi r2, obj
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
`), nil)
	var derefs int
	for _, c := range rep.Candidates {
		if c.Addr == "*obj" {
			derefs++
		}
	}
	if derefs == 0 {
		t.Fatalf("no candidate on the escaped heap cell *obj: %+v", rep.Candidates)
	}
}

func TestUnescapedHeapIsPrivate(t *testing.T) {
	rep := Analyze(mustAssemble(t, "privheap", `
.entry main

worker:
  ldi r1, 1
  sys alloc
  ldi r3, 5
  st [r1+0], r3
  ld r4, [r1+0]
  ldi r1, 0
  sys exit
`+twoWorkerMain), nil)
	if len(rep.Candidates) != 0 {
		t.Fatalf("thread-private heap produced candidates: %+v", rep.Candidates)
	}
	if rep.Stats.SkippedPrivate == 0 {
		t.Error("unescaped heap accesses not counted SkippedPrivate")
	}
}

func TestHintTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		body string
		want Hint
	}{
		{"redundant-write", `
worker:
  ldi r2, g
  ldi r3, 5
  st [r2+0], r3
  ldi r1, 0
  sys exit
`, HintRedundantWrite},
		{"disjoint-bits", `
worker:
  ldi r2, g
  ldi r3, 1
  orm [r2+0], r3
  ldi r1, 0
  sys exit
`, HintDisjointBits},
		{"user-sync", `
worker:
spin:
  ldi r2, g
  ld r3, [r2+0]
  beq r3, r0, spin
  ldi r2, g
  ldi r4, 1
  st [r2+0], r4
  ldi r1, 0
  sys exit
`, HintUserSync},
		{"double-check", `
worker:
  ldi r2, g
  ld r3, [r2+0]
  bne r3, r0, wdone
  ldi r4, 1
  st [r2+0], r4
wdone:
  ldi r1, 0
  sys exit
`, HintDoubleCheck},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Analyze(mustAssemble(t, tc.name, ".entry main\n.word g 0\n"+tc.body+twoWorkerMain), nil)
			if len(rep.Candidates) == 0 {
				t.Fatal("no candidates")
			}
			for _, c := range rep.Candidates {
				if c.Hint == tc.want {
					return
				}
			}
			t.Errorf("no candidate hinted %q: %+v", tc.want, rep.Candidates)
		})
	}
}

func TestFormatRendersCandidates(t *testing.T) {
	rep := Analyze(mustAssemble(t, "fmt", `
.entry main
.word g 0
worker:
  ldi r2, g
  ldi r3, 5
  st [r2+0], r3
  ldi r1, 0
  sys exit
`+twoWorkerMain), nil)
	var b strings.Builder
	rep.Format(&b)
	out := b.String()
	for _, want := range []string{"static analysis: fmt", "thread entries", "candidate", "cell g"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	if c := rep.Candidate(rep.Candidates[0].SiteB, rep.Candidates[0].SiteA); c == nil {
		t.Error("Candidate lookup should normalize site order")
	}
}

// --- cross-validation ---

func TestCrossValidateStates(t *testing.T) {
	rep := &Report{
		Prog: "xv",
		Candidates: []Candidate{
			{SiteA: "xv:a", SiteB: "xv:b"},
			{SiteA: "xv:c", SiteB: "xv:d"},
			{SiteA: "xv:e", SiteB: "xv:f"},
		},
	}
	ev := DynamicEvidence{
		ObservedSites: map[string]bool{
			"xv:a": true, "xv:b": true, "xv:c": true, "xv:d": true,
		},
		Races: map[hb.SitePair]string{
			hb.MakeSitePair("xv:a", "xv:b"): "potentially-benign",
			hb.MakeSitePair("xv:x", "xv:y"): "potentially-harmful",
		},
	}
	cross := CrossValidate(rep, ev, nil)
	if cross.Matched != 1 || cross.Refuted != 1 || cross.Unmatched != 1 {
		t.Fatalf("matched/refuted/unmatched = %d/%d/%d, want 1/1/1",
			cross.Matched, cross.Refuted, cross.Unmatched)
	}
	if len(cross.Missed) != 1 || cross.Missed[0].Verdict != "potentially-harmful" {
		t.Fatalf("missed = %+v, want the xv:x/xv:y race", cross.Missed)
	}
	states := map[string]MatchState{}
	for _, cc := range cross.Candidates {
		states[cc.SiteA] = cc.State
	}
	if states["xv:a"] != MatchMatched || states["xv:c"] != MatchRefuted || states["xv:e"] != MatchUnmatched {
		t.Errorf("per-candidate states wrong: %+v", states)
	}
	if got := cross.Precision(); got != 0.5 {
		t.Errorf("precision = %v, want 0.5", got)
	}
	if got := cross.Recall(); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
	if cc := cross.Candidates[0]; cc.Verdict != "potentially-benign" {
		t.Errorf("matched candidate lost its verdict: %+v", cc)
	}
}
