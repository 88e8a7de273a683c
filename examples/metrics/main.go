// Metrics: the pipeline-wide observability layer and the §5.1 overhead
// ladder it reproduces.
//
// Every stage of the pipeline — recording, replay, race detection, and
// dual-order classification — publishes counters and runs under a timing
// span when handed a metrics registry. This example runs the built-in
// suite instrumented, prints the per-stage overhead ladder the paper
// reports in §5.1 (native < record < replay < happens-before <
// classification), and shows the raw snapshot renderings a dashboard or
// Prometheus scraper would consume.
package main

import (
	"fmt"
	"log"
	"strings"

	racereplay "repro"
)

func main() {
	// One registry observes the whole run. Leaving Registry nil instead
	// turns every probe into a no-op — instrumentation costs nothing when
	// off.
	reg := racereplay.NewMetrics()
	run, err := racereplay.RunSuiteOpts(racereplay.SuiteOptions{Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	snap := reg.Snapshot()

	benign, harmful := run.Merged.CountByVerdict()
	fmt.Printf("suite: %d scenarios, %d unique races (%d potentially benign, %d potentially harmful)\n\n",
		len(run.Scenarios), len(run.Merged.Races), benign, harmful)

	// The ladder is computed from the accumulated stage spans — the same
	// numbers `paperbench -perf-report` and `racer suite -metrics` show.
	fmt.Print(racereplay.OverheadLadder(snap))

	// A few of the counters each stage published along the way.
	fmt.Println("\nselected stage counters:")
	for _, name := range []string{
		"record.instructions",
		"record.loads_total",
		"record.loads_logged",
		"replay.regions",
		"replay.loads_injected",
		"detect.region_pairs_examined",
		"detect.region_pairs_conflicting",
		"classify.instances_total",
		"report.unique_races",
	} {
		fmt.Printf("  %-34s %d\n", name, snap.Counters[name])
	}
	if r, ok := snap.Gauges["record.load_log_ratio"]; ok {
		fmt.Printf("  %-34s %.4f (the predictability rule: fraction of loads logged)\n",
			"record.load_log_ratio", r)
	}

	// The same snapshot renders for machines: the first lines of the
	// Prometheus exposition a `racer profile` server would serve.
	fmt.Println("\nprometheus exposition (first lines):")
	lines := strings.SplitN(snap.Prometheus(), "\n", 7)
	for _, line := range lines[:6] {
		fmt.Println("  " + line)
	}
}
