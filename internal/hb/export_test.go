package hb

// Test hooks for the bounded site-string cache (sites.go).

func ResetSiteCacheForTest()    { resetSiteCache() }
func SiteCacheSizeForTest() int { return siteCacheSize() }
func MaxSitePrograms() int      { return maxSitePrograms }

// OnlineWindowLenForTest returns how many records the online detector's
// window holds for addr.
func OnlineWindowLenForTest(o *Online, addr uint64) int {
	head, ok := o.window[addr]
	if !ok {
		return 0
	}
	n := 0
	for i := head; i >= 0; i = o.slab[i].next {
		n++
	}
	return n
}
