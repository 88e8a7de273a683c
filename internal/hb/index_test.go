package hb_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
)

// checkIndex verifies x against a direct recomputation from exec: the
// screen keeps exactly the addresses with two or more threads and at
// least one non-atomic write, each kept range is that address's
// non-atomic accesses in schedule order, every group is exactly one
// region's run, and sites come from Program.SiteOf.
func checkIndex(t *testing.T, exec *replay.Execution, x *hb.Index) {
	t.Helper()
	tids := map[uint64]map[int]bool{}
	written := map[uint64]bool{}
	want := map[uint64][]hb.Ref{}
	for _, reg := range exec.Regions {
		for _, acc := range reg.Accesses {
			if acc.Atomic {
				continue
			}
			if tids[acc.Addr] == nil {
				tids[acc.Addr] = map[int]bool{}
			}
			tids[acc.Addr][reg.TID] = true
			written[acc.Addr] = written[acc.Addr] || acc.IsWrite
			want[acc.Addr] = append(want[acc.Addr], hb.Ref{Acc: acc, Reg: reg})
		}
	}
	kept := []uint64{}
	for addr := range tids {
		if len(tids[addr]) >= 2 && written[addr] {
			kept = append(kept, addr)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	if !reflect.DeepEqual(append([]uint64{}, x.Addrs...), kept) {
		t.Fatalf("kept addresses = %#x, want %#x", x.Addrs, kept)
	}
	if x.Indexed != len(tids) {
		t.Fatalf("indexed %d addresses, want %d", x.Indexed, len(tids))
	}
	for addr := range tids {
		i, ok := x.Find(addr)
		wantOK := len(tids[addr]) >= 2 && written[addr]
		if ok != wantOK || (ok && x.Addrs[i] != addr) {
			t.Fatalf("Find(%#x) = %d, %v; want kept=%v", addr, i, ok, wantOK)
		}
	}

	var scratch hb.GroupScratch
	for i, addr := range x.Addrs {
		refs := x.Refs(i)
		if !reflect.DeepEqual(refs, want[addr]) {
			t.Fatalf("addr %#x: refs differ from the schedule-order accesses", addr)
		}
		for k, r := range refs {
			if r.Acc.Atomic || r.Acc.Addr != addr {
				t.Fatalf("addr %#x: ref %d is %+v", addr, k, r.Acc)
			}
			if k > 0 && refs[k-1].Reg.Global > r.Reg.Global {
				t.Fatalf("addr %#x: refs not sorted by Region.Global at %d", addr, k)
			}
		}
		groups := x.Groups(i, &scratch)
		n := 0
		for k, g := range groups {
			if k > 0 && groups[k-1].Reg.Global >= g.Reg.Global {
				t.Fatalf("addr %#x: group %d not after group %d in the schedule", addr, k, k-1)
			}
			var run, reads, writes []replay.Access
			for _, acc := range g.Reg.Accesses {
				if acc.Atomic || acc.Addr != addr {
					continue
				}
				run = append(run, acc)
				if acc.IsWrite {
					writes = append(writes, acc)
				} else {
					reads = append(reads, acc)
				}
			}
			var got []replay.Access
			for _, r := range g.Refs {
				if r.Reg != g.Reg {
					t.Fatalf("addr %#x: group %d holds a ref of region %d", addr, k, r.Reg.Global)
				}
				got = append(got, r.Acc)
			}
			if !reflect.DeepEqual(got, run) ||
				!sameAccesses(g.Reads, reads) || !sameAccesses(g.Writes, writes) {
				t.Fatalf("addr %#x: group %d is not region %d's run", addr, k, g.Reg.Global)
			}
			n += len(g.Refs)
		}
		if n != len(refs) {
			t.Fatalf("addr %#x: groups cover %d of %d refs", addr, n, len(refs))
		}
	}

	for pc := -1; pc <= len(exec.Prog.Code); pc++ {
		if got, want := x.Site(pc), exec.Prog.SiteOf(pc); got != want {
			t.Fatalf("Site(%d) = %q, want %q", pc, got, want)
		}
	}
}

func sameAccesses(a, b []replay.Access) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestIndexHandwrittenShapes(t *testing.T) {
	prog, err := asm.Assemble("idx", ".entry main\nmain:\n  ldi r1, 1\n  ldi r2, 2\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	acc := func(tid, pc int, addr uint64, write, atomic bool) replay.Access {
		return replay.Access{TID: tid, PC: pc, Addr: addr, IsWrite: write, Atomic: atomic}
	}
	regions := []*replay.Region{
		{TID: 1, Accesses: []replay.Access{
			acc(1, 0, 0x10, true, false),  // shared, written: kept
			acc(1, 1, 0x20, true, false),  // one thread only
			acc(1, 0, 0x30, false, false), // shared, read-only
			acc(1, 1, 0x40, true, true),   // its only write is atomic
			acc(1, 2, 0x50, true, false),  // second thread is atomic only
			acc(1, 1, 0x10, false, false),
		}},
		{TID: 2, Accesses: []replay.Access{
			acc(2, 1, 0x10, false, false),
			acc(2, 0, 0x10, true, true), // atomic on a kept address
			acc(2, 2, 0x30, false, false),
			acc(2, 0, 0x40, false, false),
			acc(2, 1, 0x50, true, true),
		}},
		{TID: 1, Accesses: []replay.Access{
			acc(1, 2, 0x20, false, false),
			acc(1, 0, 0x10, true, false),
			acc(1, 2, 0x10, true, false),
		}},
		{TID: 2}, // no accesses: no group anywhere
		{TID: 2, Accesses: []replay.Access{acc(2, 2, 0x10, false, false)}},
	}
	for g, r := range regions {
		r.Global = g
	}
	exec := &replay.Execution{Prog: prog, Regions: regions}
	x := hb.NewIndex(exec)
	checkIndex(t, exec, x)
	if !reflect.DeepEqual(x.Addrs, []uint64{0x10}) || x.Indexed != 5 {
		t.Fatalf("Addrs=%#x Indexed=%d, want [0x10] of 5", x.Addrs, x.Indexed)
	}
	var scratch hb.GroupScratch
	groups := x.Groups(0, &scratch)
	var shape [][2]int
	for _, g := range groups {
		shape = append(shape, [2]int{len(g.Reads), len(g.Writes)})
	}
	if want := [][2]int{{1, 1}, {1, 0}, {0, 2}, {1, 0}}; !reflect.DeepEqual(shape, want) {
		t.Fatalf("group (reads, writes) = %v, want %v", shape, want)
	}

	empty := hb.NewIndex(&replay.Execution{Prog: prog})
	checkIndex(t, empty.Exec, empty)
	if len(empty.Addrs) != 0 || empty.Indexed != 0 {
		t.Fatalf("empty execution indexed %d addresses", empty.Indexed)
	}
}

func TestIndexProgenSample(t *testing.T) {
	kept := 0
	for i := int64(0); i < 12; i++ {
		r := rand.New(rand.NewSource(i))
		prog, err := asm.Assemble("gen", progen.Generate(r, progen.Random(r)))
		if err != nil {
			t.Fatal(err)
		}
		log, _, _, err := record.Run(prog, machine.Config{Seed: i, MaxSteps: 1 << 20}, record.OnlineConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := hb.NewIndex(exec)
		checkIndex(t, exec, x)
		kept += len(x.Addrs)
	}
	if kept == 0 {
		t.Fatal("the sample kept no address; it exercises only the screen")
	}
	t.Logf("%d kept addresses across the sample", kept)
}
