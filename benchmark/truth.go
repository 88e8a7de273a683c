package main

import (
	rr "repro"
	"repro/internal/classify"
	"repro/internal/workloads"
)

// truth checks verdicts against the templates' hand-written labels,
// never against the classifier's own output.
type truth struct {
	bySite map[string]*workloads.Template // site -> template, nil if none
}

func newTruth() *truth { return &truth{bySite: map[string]*workloads.Template{}} }

func (t *truth) template(site string) *workloads.Template {
	tm, ok := t.bySite[site]
	if !ok {
		tm = workloads.TemplateOfSite(site)
		t.bySite[site] = tm
	}
	return tm
}

// wrong counts the unique races that map to no template, land in a
// Table-1 group their template's ExpectGroup does not allow, or are real
// bugs filtered as potentially benign; detail names the first few.
//
// ExpectGroup is the group a template's races reach over the whole
// suite. With exact set, the races come from every suite scenario and
// must land in it. Otherwise the runs cover only part of the suite, and
// a race may also land in any group a subset of its instances can give:
// a race is state-change if any instance changed state, else
// replay-failure if any failed, else no-state-change.
func (t *truth) wrong(c *rr.Classification, exact bool) (n int, detail []string) {
	for _, r := range c.Races {
		tm := t.template(r.Sites.A)
		var why string
		switch {
		case tm == nil:
			why = "maps to no template"
		case r.Group != tm.ExpectGroup && (exact || !subsetGroup(r.Group, tm.ExpectGroup)):
			why = "group " + r.Group.String() + ", template " + tm.Name + " expects " + tm.ExpectGroup.String()
		case tm.RealHarmful && r.Verdict == rr.PotentiallyBenign:
			why = "real bug in template " + tm.Name + " filtered as potentially benign"
		default:
			continue
		}
		n++
		if len(detail) < 5 {
			detail = append(detail, "wrong verdict: "+r.Sites.String()+": "+why)
		}
	}
	return n, detail
}

// subsetGroup reports whether some subset of the instances of a race in
// group want can put it in group got.
func subsetGroup(got, want classify.Group) bool {
	switch want {
	case rr.GroupStateChange:
		return true
	case rr.GroupReplayFailure:
		return got == rr.GroupNoStateChange
	}
	return false
}

// Seed streams keep the derived seeds of different workloads apart.
const (
	streamSuite = iota + 1
	streamLong
	streamServe
)

// derive maps the workload seed and a position to a scheduler seed
// (splitmix64 over the parts): the same workload seed always gives the
// same inputs, and every position gets its own seed.
func derive(seed int64, parts ...int) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 33)
}
