// Command fsdbench is the repository's benchmark. It drives an FSD volume
// only through its public surface — cedarfs.FS and NewLocalFS, the
// Volume's Format, Mount, Crash, Verify, Stats and TraceTo, client.Dial
// and server.New — on one of three workloads, checks every result against
// the bytes it wrote, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). The last line of standard output is one
// JSON object; the lines before it are the same numbers for a reader, the
// pinned configuration and the oracle verdicts. README.md lists the
// workloads, the metrics and which end-to-end metric each layer metric
// should move.
//
//	bash fsdbench/run.sh --workload hotspot --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// setupRuns is how many times each run builds its starting volume; setup_s
// is the median, and the last build is the one measured.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	callers  int
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdbench:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fsdbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fl := flag.NewFlagSet("fsdbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "makedo, hotspot or server")
	fl.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fl.IntVar(&o.seconds, "seconds", 15, "sizes the measured window: a fixed number of operations, about this many seconds of them on a 2-vCPU machine")
	trace := fl.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	fl.IntVar(&o.callers, "callers", 2, "closed-loop callers of the server workload (README: known defect)")
	if err := fl.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload != "makedo" && o.workload != "hotspot" && o.workload != "server":
		return o, fmt.Errorf("--workload must be makedo, hotspot or server, not %q", o.workload)
	case o.seconds < 1:
		return o, errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	case o.callers < 1:
		return o, errors.New("--callers must be at least 1")
	case o.callers != 2 && o.workload != "server":
		return o, errors.New("--callers applies to the server workload only")
	}
	o.trace = *trace == 1
	return o, nil
}

func run(o options) error {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	var w workload
	switch o.workload {
	case "makedo":
		w = newMakeDo(o.seed, o.seconds)
	case "hotspot":
		w = newHotspot(o.seed, o.seconds)
	case "server":
		w = newServer(o.seed, o.callers, o.seconds)
	}
	fmt.Printf("fsdbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("config: go=%s GOMAXPROCS=%d nproc=%d volume=%+v\n",
		runtime.Version(), procs, runtime.NumCPU(), w.config())
	fmt.Printf("config: %s\n", w.describe())

	res, err := measure(w, o)
	if err != nil {
		return err
	}
	return report(res, o.trace)
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is everything one run produced.
type result struct {
	e2e, layers []metric
	attempted   int
	failed      int
	verdicts    []verdict
	errSamples  []string
}

// verdict is the outcome of one oracle.
type verdict struct {
	name   string
	ok     bool
	detail string
}

func report(res *result, traced bool) error {
	fmt.Println("oracles:")
	correct := true
	for _, v := range res.verdicts {
		state := "ok"
		if !v.ok {
			state = "FAILED"
			correct = false
		}
		fmt.Printf("  %-26s %-6s %s\n", v.name, state, v.detail)
	}
	share := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("operations: attempted=%d failed=%d failed_op_share=%g\n", res.attempted, res.failed, share)
	for _, s := range res.errSamples {
		fmt.Printf("  error: %s\n", s)
	}
	printMetrics := func(title string, ms []metric) {
		fmt.Println(title)
		for _, m := range ms {
			fmt.Printf("  %-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	out := res.e2e
	if traced {
		printMetrics("per-layer metrics (traced run):", res.layers)
		out = res.layers
	} else {
		printMetrics("end-to-end metrics:", res.e2e)
		printMetrics("per-layer counters of the untraced window (the traced run reports the full set):", res.layers)
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(out))
	for _, m := range out {
		metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// errSampler keeps the first distinct error strings of a run.
type errSampler struct {
	seen    map[string]bool
	samples []string
}

func (s *errSampler) add(msg string) {
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	if len(s.samples) >= 8 || s.seen[msg] {
		return
	}
	s.seen[msg] = true
	s.samples = append(s.samples, msg)
}

func (s *errSampler) merge(o *errSampler) {
	for _, m := range o.samples {
		s.add(m)
	}
}
