package hb

import (
	"slices"

	"repro/internal/replay"
)

// Ref ties one non-atomic access to the region that performed it.
type Ref struct {
	Acc replay.Access
	Reg *replay.Region
}

// Index is the per-address view of one replayed execution that every
// offline detector shares: the region-overlap and vector-clock
// detectors, prediction, and lockset triage.
//
// Pass 1 screens every address down to a constant-size summary (a slot
// in a flat slice; the only per-access map op is the address→slot
// lookup) and keeps only addresses touched by two or more threads with
// at least one non-atomic write, which on real workloads filters almost
// every address. Pass 2 copies the kept addresses' references into one
// exactly-sized buffer, each address a contiguous range in region
// schedule order, so grouping by region (Groups) is run-splitting.
// Atomic (lock-prefixed) accesses are synchronization, not data: they
// never enter the index.
type Index struct {
	Exec  *replay.Execution
	Addrs []uint64 // kept addresses, ascending: the order reports emit in
	// Indexed counts the distinct addresses with a non-atomic access;
	// the screen dropped Indexed - len(Addrs) of them.
	Indexed int

	starts []int32 // Addrs[i]'s references are refs[starts[i]:starts[i+1]]
	refs   []Ref
	sites  *SiteTable
}

// addrScreen is the per-address screening summary plus the address's
// cursor into the shared reference buffer once it survives the screen.
type addrScreen struct {
	tid         int32 // first thread observed touching the address
	refs        int32 // non-atomic accesses (for exact buffer sizing)
	next        int32 // write cursor into the shared ref buffer (pass 2)
	multiThread bool  // a second thread touched it
	hasWrite    bool  // at least one non-atomic write
	keep        bool  // survived the screen
}

// NewIndex screens exec's addresses and lays out the survivors.
func NewIndex(exec *replay.Execution) *Index {
	// Pass 1: screen addresses.
	slotOf := make(map[uint64]int32)
	var screens []addrScreen
	for _, region := range exec.Regions {
		for _, acc := range region.Accesses {
			if acc.Atomic {
				continue
			}
			slot, ok := slotOf[acc.Addr]
			if !ok {
				slot = int32(len(screens))
				screens = append(screens, addrScreen{tid: int32(region.TID)})
				slotOf[acc.Addr] = slot
			}
			s := &screens[slot]
			if s.tid != int32(region.TID) {
				s.multiThread = true
			}
			s.hasWrite = s.hasWrite || acc.IsWrite
			s.refs++
		}
	}

	// Lay out one contiguous range per kept address in the shared buffer,
	// in ascending address order.
	x := &Index{Exec: exec, Indexed: len(screens), sites: Sites(exec.Prog)}
	for addr, slot := range slotOf {
		s := &screens[slot]
		if s.multiThread && s.hasWrite {
			s.keep = true
			x.Addrs = append(x.Addrs, addr)
		}
	}
	slices.Sort(x.Addrs)
	x.starts = make([]int32, len(x.Addrs)+1)
	total := int32(0)
	for i, addr := range x.Addrs {
		s := &screens[slotOf[addr]]
		x.starts[i], s.next = total, total
		total += s.refs
	}
	x.starts[len(x.Addrs)] = total

	// Pass 2: copy the survivors' references into their ranges, walking
	// regions in schedule order so each range is sorted by Region.Global.
	x.refs = make([]Ref, total)
	if total > 0 {
		for _, region := range exec.Regions {
			for _, acc := range region.Accesses {
				if acc.Atomic {
					continue
				}
				if s := &screens[slotOf[acc.Addr]]; s.keep {
					x.refs[s.next] = Ref{Acc: acc, Reg: region}
					s.next++
				}
			}
		}
	}
	return x
}

// Refs returns kept address Addrs[i]'s references in schedule order.
func (x *Index) Refs(i int) []Ref { return x.refs[x.starts[i]:x.starts[i+1]] }

// Find returns addr's position in Addrs, or false when the screen
// dropped it (no cross-thread conflict is possible there).
func (x *Index) Find(addr uint64) (int, bool) { return slices.BinarySearch(x.Addrs, addr) }

// Site returns the site string for pc from the shared per-program table.
func (x *Index) Site(pc int) string { return x.sites.Site(pc) }

// Group is one region's run of references to one address.
type Group struct {
	Reg  *replay.Region
	Refs []Ref // in access order; aliases the index, read-only
	// Reads and Writes split Refs by kind, each in access order. They
	// live in the caller's GroupScratch, which callers may filter in
	// place until the next Groups call.
	Reads, Writes []replay.Access
}

// Conflicts calls f on every conflicting access pair of g and a later
// group h: write/write, write/read, then read/write, each in access
// order.
func (g *Group) Conflicts(h *Group, f func(a, b replay.Access)) {
	for _, w := range g.Writes {
		for _, v := range h.Writes {
			f(w, v)
		}
		for _, r := range h.Reads {
			f(w, r)
		}
	}
	for _, r := range g.Reads {
		for _, w := range h.Writes {
			f(r, w)
		}
	}
}

// GroupScratch is the reusable backing of Groups' results, so a pass
// over every address allocates only as much as its largest address.
type GroupScratch struct {
	groups        []Group
	reads, writes []replay.Access
}

// Groups run-splits Addrs[i]'s references into per-region groups in
// schedule order. The result aliases s and is valid until the next call
// with the same scratch.
func (x *Index) Groups(i int, s *GroupScratch) []Group {
	refs := x.Refs(i)
	// Capacity for every read and write up front, so the per-group
	// subslices taken below are never invalidated by a later append.
	writes := 0
	for _, r := range refs {
		if r.Acc.IsWrite {
			writes++
		}
	}
	s.groups = s.groups[:0]
	s.reads = slices.Grow(s.reads[:0], len(refs)-writes)
	s.writes = slices.Grow(s.writes[:0], writes)
	for lo := 0; lo < len(refs); {
		hi, reg := lo, refs[lo].Reg
		rLo, wLo := len(s.reads), len(s.writes)
		for ; hi < len(refs) && refs[hi].Reg == reg; hi++ {
			if acc := refs[hi].Acc; acc.IsWrite {
				s.writes = append(s.writes, acc)
			} else {
				s.reads = append(s.reads, acc)
			}
		}
		s.groups = append(s.groups, Group{
			Reg:    reg,
			Refs:   refs[lo:hi],
			Reads:  s.reads[rLo:len(s.reads):len(s.reads)],
			Writes: s.writes[wLo:len(s.writes):len(s.writes)],
		})
		lo = hi
	}
	return s.groups
}
