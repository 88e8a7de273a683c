package hb

import (
	"sync"

	"repro/internal/isa"
)

// maxSitePrograms bounds the package-level site-string cache. A long-lived
// process (racer serve/profile, the suite runner) analyzes many executions
// but only a handful of distinct programs at a time; 32 comfortably covers
// the whole workload suite plus fuzz/chaos churn while keeping the cache
// from growing without limit across a long lifetime.
const maxSitePrograms = 32

// SiteTable holds the formatted "prog:label+off" site string for every
// code index of one program. Site strings are pure functions of the PC,
// so the table is immutable once built and safe to share across detector
// passes and goroutines.
type SiteTable struct {
	prog  *isa.Program
	sites []string
}

// Site returns the site string for pc — exactly prog.SiteOf(pc) —
// falling back to direct formatting for out-of-range PCs (which SiteOf
// renders as a raw index).
func (t *SiteTable) Site(pc int) string {
	if pc >= 0 && pc < len(t.sites) {
		return t.sites[pc]
	}
	return t.prog.SiteOf(pc)
}

// siteCache is the bounded per-program cache, keyed by program identity.
// Entries are evicted FIFO once maxSitePrograms distinct programs have
// been seen, so repeated analysis of fresh programs (fuzzing, chaos
// corpora, serve/profile lifetimes) cannot leak memory, while the common
// case — many seeds or repeated passes over the same program — reuses one
// eagerly-built table.
var siteCache = struct {
	sync.Mutex
	m     map[*isa.Program]*SiteTable
	order []*isa.Program // insertion order, for FIFO eviction
}{m: make(map[*isa.Program]*SiteTable)}

// Sites returns the (possibly cached) site table for prog.
func Sites(prog *isa.Program) *SiteTable {
	siteCache.Lock()
	defer siteCache.Unlock()
	if t, ok := siteCache.m[prog]; ok {
		return t
	}
	t := &SiteTable{prog: prog, sites: make([]string, len(prog.Code))}
	for pc := range t.sites {
		t.sites[pc] = prog.SiteOf(pc)
	}
	for len(siteCache.order) >= maxSitePrograms {
		evict := siteCache.order[0]
		siteCache.order = siteCache.order[1:]
		delete(siteCache.m, evict)
	}
	siteCache.m[prog] = t
	siteCache.order = append(siteCache.order, prog)
	return t
}

// siteCacheSize reports the number of cached programs (test hook).
func siteCacheSize() int {
	siteCache.Lock()
	defer siteCache.Unlock()
	return len(siteCache.m)
}

// resetSiteCache empties the cache (test hook).
func resetSiteCache() {
	siteCache.Lock()
	defer siteCache.Unlock()
	siteCache.m = make(map[*isa.Program]*SiteTable)
	siteCache.order = nil
}
