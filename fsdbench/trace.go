package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	cedarfs "repro"
	"repro/internal/obs"
)

// The traced run alternates traced and untraced phases of this length, so
// the tracing overhead is measured on the same volume at the same point of
// the run, and drift between the two cancels.
const tracePhase = 250 * time.Millisecond

// Only this many spans and volume events are kept for the trace file; the
// aggregates cover every one.
const (
	maxSpans  = 20000
	maxEvents = 50000
)

// span is one timed interval of the benchmark's own tracing: a logical
// operation ("op"), a file-system call made by a caller ("call"), or a
// call the server-side decorator passed to the volume ("server").
type span struct {
	ID       int64         `json:"id"`
	Parent   int64         `json:"parent,omitempty"`
	Side     string        `json:"side"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"-"`
	At       time.Duration `json:"at_ns"`
	Wall     time.Duration `json:"wall_ns"`
	SimStart time.Duration `json:"sim_start_ns"`
	Sim      time.Duration `json:"sim_ns"`
	// Disk and Events are the volume's trace events that arrived while
	// the span was open; only a single caller can attribute them.
	Disk   time.Duration `json:"disk_ns,omitempty"`
	Events int           `json:"events,omitempty"`
}

// tracedEvent is one volume trace event with the span it arrived in.
type tracedEvent struct {
	Span int64 `json:"span,omitempty"`
	cedarfs.TraceEvent
}

// spanTotals sums the spans of one side.
type spanTotals struct {
	n               int
	wall, sim, disk time.Duration
}

// phase is one stretch of a traced run with tracing on or off, and the
// operations completed in it.
type phase struct {
	traced bool
	dur    time.Duration
	ops    int64
	cpu    time.Duration // process CPU
}

// overhead is the share of throughput tracing costs: one minus the median
// rate of the traced phases over that of the untraced ones. The first
// phase, which warms the caches set-up dropped, is left out.
func overhead(phases []phase) float64 {
	on, _ := phaseRates(phases, true)
	off, _ := phaseRates(phases, false)
	if on == 0 || off == 0 {
		return 0
	}
	return 1 - on/off
}

// phaseRates is the median throughput and process CPU per operation over
// the phases with tracing on (or off), the first phase left out.
func phaseRates(phases []phase, traced bool) (rate, cpuPerOp float64) {
	var rates, cpus []float64
	for i, p := range phases {
		if i == 0 || p.traced != traced || p.dur <= 0 || p.ops == 0 {
			continue
		}
		rates = append(rates, float64(p.ops)/p.dur.Seconds())
		cpus = append(cpus, us(p.cpu)/float64(p.ops))
	}
	return median(rates), median(cpus)
}

// tracer holds the benchmark's spans and the volume events of a traced
// run in memory until the run ends.
type tracer struct {
	on atomic.Bool
	// attribute is set when one caller drives the volume, so an event
	// belongs to the caller's open call.
	attribute bool
	epoch     time.Time
	next      atomic.Int64

	mu        sync.Mutex
	cur       int64
	curDisk   time.Duration
	curEvents int
	spans     []span
	events    []tracedEvent
	nEvents   int
	unowned   int
	diskAll   time.Duration
	applyLag  []time.Duration
	maxDepth  int64 // deepest intent queue an enqueue left
	totals    map[string]*spanTotals
}

func newTracer(attribute bool) *tracer {
	return &tracer{attribute: attribute, epoch: time.Now(), totals: make(map[string]*spanTotals)}
}

func (t *tracer) newID() int64 { return t.next.Add(1) }

// enter opens a caller-side call span and returns its id.
func (t *tracer) enter() int64 {
	id := t.newID()
	if t.attribute {
		t.mu.Lock()
		t.cur, t.curDisk, t.curEvents = id, 0, 0
		t.mu.Unlock()
	}
	return id
}

// exit closes the call span enter opened.
func (t *tracer) exit(s span) {
	t.mu.Lock()
	if t.attribute {
		s.Disk, s.Events = t.curDisk, t.curEvents
		t.cur = 0
	}
	t.recordLocked(s)
	t.mu.Unlock()
}

// span records a finished span.
func (t *tracer) span(s span) {
	t.mu.Lock()
	t.recordLocked(s)
	t.mu.Unlock()
}

func (t *tracer) recordLocked(s span) {
	tot := t.totals[s.Side]
	if tot == nil {
		tot = &spanTotals{}
		t.totals[s.Side] = tot
	}
	tot.n++
	tot.wall += s.Wall
	tot.sim += s.Sim
	tot.disk += s.Disk
	if len(t.spans) < maxSpans {
		s.At = s.Start.Sub(t.epoch)
		t.spans = append(t.spans, s)
	}
}

// sink receives the volume's trace events. It runs under the volume's
// internal locks; t.mu is a leaf lock.
func (t *tracer) sink(e cedarfs.TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nEvents++
	id := t.cur
	if id == 0 {
		t.unowned++
	}
	switch e.Kind {
	case obs.EvDiskOp:
		d := time.Duration(e.B + e.C + e.D)
		t.diskAll += d
		if id != 0 {
			t.curDisk += d
		}
	case obs.EvIntentApply:
		t.applyLag = append(t.applyLag, time.Duration(e.B))
	case obs.EvIntentEnqueue:
		t.maxDepth = max(t.maxDepth, e.B)
	}
	if id != 0 {
		t.curEvents++
	}
	if len(t.events) < maxEvents {
		t.events = append(t.events, tracedEvent{Span: id, TraceEvent: e})
	}
}

// alternate switches tracing on and off every tracePhase, starting off,
// until the returned function is called; that function switches tracing
// off and returns the phases, with the operations completed and the
// process CPU spent in each.
func (t *tracer) alternate(v *cedarfs.Volume, done *atomic.Int64) func() []phase {
	stop := make(chan struct{})
	out := make(chan []phase)
	go func() {
		var phases []phase
		start, ops, cpu := time.Now(), done.Load(), processCPU()
		tick := time.NewTicker(tracePhase)
		defer tick.Stop()
		for {
			var stopped bool
			select {
			case <-tick.C:
			case <-stop:
				stopped = true
			}
			now, n, c := time.Now(), done.Load(), processCPU()
			on := t.on.Load()
			phases = append(phases, phase{traced: on, dur: now.Sub(start), ops: n - ops, cpu: c - cpu})
			start, ops, cpu = now, n, c
			if on || stopped {
				t.on.Store(false)
				v.TraceTo(nil)
			} else {
				v.TraceTo(t.sink)
				t.on.Store(true)
			}
			if stopped {
				out <- phases
				return
			}
		}
	}()
	return func() []phase {
		close(stop)
		return <-out
	}
}

// intents reports the p99 of the exact enqueue-to-apply lags and the
// deepest queue the traced phases saw; both 0 when no intent was queued
// while tracing.
func (t *tracer) intents() (lagP99 time.Duration, maxDepth int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return quantile(slices.Clone(t.applyLag), 0.99), t.maxDepth
}

// selfTimes reports the tracing overhead and each layer's self time per
// operation, from the traced phases.
func (t *tracer) selfTimes(rec *recorder, srv *serverSide, phases []phase) []metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	get := func(side string) spanTotals {
		if s := t.totals[side]; s != nil {
			return *s
		}
		return spanTotals{}
	}
	op, call, server := get("op"), get("call"), get("server")
	perOp := func(d time.Duration) float64 {
		if op.n == 0 {
			return 0
		}
		return float64(d) / float64(op.n)
	}
	var evPerOp, unowned float64
	if n := len(rec.ops[1]); n > 0 {
		evPerOp = float64(t.nEvents) / float64(n)
	}
	if t.nEvents > 0 {
		unowned = float64(t.unowned) / float64(t.nEvents)
	}
	core, frontend := call.wall, time.Duration(0)
	disk, cpu := call.disk, call.sim-call.disk
	if srv != nil {
		core, frontend = server.wall, call.wall-server.wall
		// Concurrent callers cannot own events, so the disk time is the
		// whole traced phase's and the CPU share is not attributable.
		disk, cpu = t.diskAll, 0
	}
	return []metric{
		{"trace.overhead_share", "share", overhead(phases)},
		{"trace.events_per_op", "count/op", evPerOp},
		{"trace.unattributed_share", "share", unowned},
		{"self.caller_us_per_op", "us/op", us(time.Duration(perOp(op.wall - call.wall)))},
		{"self.frontend_us_per_op", "us/op", us(time.Duration(perOp(frontend)))},
		{"self.core_us_per_op", "us/op", us(time.Duration(perOp(core)))},
		{"self.disk_sim_ms_per_op", "ms/op", ms(time.Duration(perOp(disk)))},
		{"self.cpu_sim_ms_per_op", "ms/op", ms(time.Duration(perOp(cpu)))},
	}
}

// write saves the kept spans and events to .bench_build/traces/ in the
// working directory, one JSON object a line, after a summary line.
func (t *tracer) write(o options, phases []phase) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var traced, untraced time.Duration
	for _, p := range phases {
		if p.traced {
			traced += p.dur
		} else {
			untraced += p.dur
		}
	}
	summary := map[string]any{
		"workload": o.workload, "seed": o.seed,
		"traced_s": traced.Seconds(), "untraced_s": untraced.Seconds(),
		"events": t.nEvents, "events_kept": len(t.events), "spans_kept": len(t.spans),
	}
	for side, tot := range t.totals {
		summary["spans_"+side] = tot.n
	}
	err = enc.Encode(summary)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	for i := 0; err == nil && i < len(t.events); i++ {
		err = enc.Encode(&t.events[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("trace: %d spans and %d events kept in %s\n", len(t.spans), len(t.events), path)
	return nil
}
