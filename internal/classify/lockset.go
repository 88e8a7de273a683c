package classify

import (
	"sort"

	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/replay"
	"repro/internal/vproc"
)

// LocksetVerdict is the replay checker's judgement of one lockset warning
// (§2.2.2: "our analysis can also be used for analyzing the data races
// reported by a lockset based algorithm ... The analysis should be able
// to filter out the benign data races and also the false positives").
type LocksetVerdict int

const (
	// LocksetFalsePositive: every conflicting access pair at the warned
	// address is ordered by a sequencer — the locking discipline was
	// violated, but no race exists.
	LocksetFalsePositive LocksetVerdict = iota
	// LocksetBenign: real races exist but every instance is
	// No-State-Change under dual-order replay.
	LocksetBenign
	// LocksetHarmful: some instance exposed a state change or replay
	// failure.
	LocksetHarmful
)

func (v LocksetVerdict) String() string {
	switch v {
	case LocksetFalsePositive:
		return "false-positive"
	case LocksetBenign:
		return "potentially-benign"
	case LocksetHarmful:
		return "potentially-harmful"
	}
	return "verdict(?)"
}

// LocksetTriage is the replay analysis of one lockset warning.
type LocksetTriage struct {
	Warning *lockset.Warning
	Verdict LocksetVerdict
	// OrderedPairs counts conflicting access pairs that a sequencer
	// orders (evidence toward false positive); RacyInstances counts the
	// genuinely unordered ones that were dual-order replayed.
	OrderedPairs  int
	RacyInstances int
	NSC, SC, RF   int
}

// TriageLockset runs the paper's replay checker over an Eraser report:
// for each warned address, every cross-thread conflicting access pair is
// either proven ordered (no race — the warning is a false positive for
// that pair) or replayed in both orders and classified.
func TriageLockset(exec *replay.Execution, rep *lockset.Report, opts Options) []LocksetTriage {
	x := hb.NewIndex(exec)
	var vopts vproc.Options
	if opts.UseOracle {
		vopts.Oracle = replay.BuildVersionedMemory(exec)
	}

	var out []LocksetTriage
	var scratch hb.GroupScratch
	for _, w := range rep.Warnings {
		tr := LocksetTriage{Warning: w}
		// An address the index screened out has no cross-thread conflict
		// to order or replay.
		var groups []hb.Group
		if i, ok := x.Find(w.Addr); ok {
			groups = x.Groups(i, &scratch)
		}
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				ga, gb := &groups[i], &groups[j]
				if ga.Reg.TID == gb.Reg.TID {
					continue
				}
				if !ga.Reg.Overlaps(gb.Reg) {
					// Every conflicting access pair of the two regions.
					tr.OrderedPairs += len(ga.Writes)*len(gb.Refs) + len(ga.Reads)*len(gb.Writes)
					continue
				}
				// One representative pair per region pair, the first
				// conflicting one in access order: the same dedup the
				// happens-before detector applies.
				a, b, ok := firstConflict(ga.Refs, gb.Refs)
				if !ok {
					continue
				}
				res := vproc.AnalyzeOpts(exec, racePair(hb.Instance{
					First: a, Second: b, RegionA: ga.Reg, RegionB: gb.Reg, Addr: w.Addr,
				}), vopts)
				tr.RacyInstances++
				switch res.Outcome {
				case vproc.NoStateChange:
					tr.NSC++
				case vproc.StateChange:
					tr.SC++
				default:
					tr.RF++
				}
			}
		}
		switch {
		case tr.RacyInstances == 0:
			tr.Verdict = LocksetFalsePositive
		case tr.SC == 0 && tr.RF == 0:
			tr.Verdict = LocksetBenign
		default:
			tr.Verdict = LocksetHarmful
		}
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Warning.Addr < out[j].Warning.Addr })
	return out
}

// firstConflict returns the first pair (a from as, b from bs), in access
// order, of which at least one is a write.
func firstConflict(as, bs []hb.Ref) (a, b replay.Access, ok bool) {
	for _, ra := range as {
		for _, rb := range bs {
			if ra.Acc.IsWrite || rb.Acc.IsWrite {
				return ra.Acc, rb.Acc, true
			}
		}
	}
	return a, b, false
}
