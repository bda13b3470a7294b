package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	cedarfs "repro"
	"repro/internal/core"
)

// bed is one volume under test with its own simulated disk and clock.
type bed struct {
	clk *cedarfs.VirtualClock
	d   *cedarfs.Disk
	v   *cedarfs.Volume
	cfg cedarfs.Config
}

func newBed(cfg cedarfs.Config) (*bed, error) {
	d, clk, err := cedarfs.NewDisk(cedarfs.DefaultGeometry)
	if err != nil {
		return nil, fmt.Errorf("new disk: %w", err)
	}
	v, err := cedarfs.Format(d, cfg)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	return &bed{clk: clk, d: d, v: v, cfg: cfg}, nil
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// config is the pinned volume configuration.
	config() cedarfs.Config
	// describe names the workload's sizes and mix for the report.
	describe() string
	// setup builds a fresh volume holding the workload's starting state.
	setup() (*bed, error)
	// discard releases a set-up volume that is not measured.
	discard(b *bed)
	// warm runs the operations that precede the window, unmeasured but
	// checked, and reports on them; nil when the workload has none.
	warm(b *bed, w *window) []verdict
	// drive runs the window: the workload's closed loops on b, through a
	// fixed number of pre-generated operations.
	drive(b *bed, w *window)
	// finish ends the run: it crashes b, remounts and verifies the volume
	// and checks every file against the workload's model.
	finish(b *bed, w *window) (*ending, error)
	// singleCaller reports whether one caller drives the volume, so the
	// simulated clock advances only by the disk and CPU time it charges.
	singleCaller() bool
}

// ending is what the crash, remount and verify at the end of a run found.
type ending struct {
	mountSim  time.Duration
	verifySim time.Duration
	report    cedarfs.MountReport
	replay    cedarfs.RecoveryStats
	verify    core.VerifyStats
	verdicts  []verdict
}

// warmUp runs n steps of a single-caller workload before the window, so
// the window starts with the caches set-up dropped filled again. The steps
// are checked like the window's but not measured.
func warmUp(b *bed, w *window, n int, step func(c *caller)) []verdict {
	c := newCaller(cedarfs.NewLocalFS(b.v), b, w)
	t0 := b.clk.Now()
	for i := 0; i < n; i++ {
		step(c)
	}
	// The simulated time of a fixed operation sequence shows whether the
	// simulation repeats exactly from run to run at one seed.
	what := fmt.Sprintf("%d operations before the window in %.9f simulated s", c.rec.attempted, (b.clk.Now() - t0).Seconds())
	return []verdict{checked("warm-up", what, true, c.rec)}
}

// checked is the verdict on operations run outside the window: ok holds
// and none failed.
func checked(name, what string, ok bool, r *recorder) verdict {
	detail := fmt.Sprintf("%s, %d failed, %d mismatched", what, r.failed, r.mismatches)
	if len(r.errs.samples) > 0 {
		detail += ", first: " + r.errs.samples[0]
	}
	return verdict{name, ok && r.failed == 0, detail}
}

// settleLog runs a single-caller workload on past the window until the
// log enters a new third and then tail more steps, so the crash finds the
// log at the same point of its cycle on every seed. The window's fixed
// work leaves the log at a point that differs from seed to seed, and the
// replay time after the crash with it. left reports how many pre-generated
// steps remain. The steps are checked like the window's but not measured.
func settleLog(b *bed, w *window, tail int, left func() int, step func(c *caller)) verdict {
	c := newCaller(cedarfs.NewLocalFS(b.v), b, w)
	start := b.v.Stats().Commit.ThirdCrossings
	for left() > tail && b.v.Stats().Commit.ThirdCrossings == start {
		step(c)
	}
	crossed := b.v.Stats().Commit.ThirdCrossings != start
	for i := 0; i < tail && left() > 0; i++ {
		step(c)
	}
	what := fmt.Sprintf("%d operations to the next log third and on", c.rec.attempted)
	if !crossed {
		what = "inputs used up before the log crossed a third; " + what
	}
	return checked("crash point", what, crossed, c.rec)
}

// crashAndRemount models a power failure at the end of the window: it
// crashes b's volume, revives the disk, mounts it again (timed on the
// simulated clock) and runs Verify.
func crashAndRemount(b *bed) (*ending, error) {
	b.v.Crash()
	b.d.Revive()
	t0 := b.clk.Now()
	v, rep, err := cedarfs.Mount(b.d, b.cfg)
	if err != nil {
		return nil, fmt.Errorf("mount after crash: %w", err)
	}
	e := &ending{mountSim: b.clk.Now() - t0, report: rep, replay: v.Stats().Recovery}
	b.v = v
	t0 = b.clk.Now()
	vs, err := v.Verify()
	if err != nil {
		return nil, fmt.Errorf("verify after crash: %w", err)
	}
	e.verifySim = b.clk.Now() - t0
	e.verify = vs
	detail := fmt.Sprintf("%d entries, %d problems", vs.Entries, len(vs.Problems))
	if len(vs.Problems) > 0 {
		detail += ", first: " + vs.Problems[0]
	}
	e.verdicts = append(e.verdicts, verdict{"verify", len(vs.Problems) == 0, detail})
	return e, nil
}

// window is the measured part of a run: a fixed number of operations,
// drawn from the seed, so what the window does and where the crash after
// it finds the volume do not depend on how fast the machine runs. It is
// cut into slices of sliceLen of wall time; the wall-clock metrics are
// medians over the slices, so a burst of load from outside the benchmark
// moves a few slices and not the result.
type window struct {
	start   time.Time
	tr      *tracer
	callers []*caller
	// server holds the server-side samples of the server workload.
	server *serverSide
	// done counts the operations completed so far, for slices and phases.
	done atomic.Int64
	// slices holds the counters read at each slice boundary.
	slices []sliceEdge
}

// sliceLen is the length of one slice of the window.
const sliceLen = time.Second

// sliceEdge is what the slicer read at one slice boundary.
type sliceEdge struct {
	at  time.Time
	ops int64
	cpu time.Duration
}

// slice is the index of the slice the present moment falls in.
func (w *window) slice() int32 { return int32(time.Since(w.start) / sliceLen) }

// slicer records a sliceEdge every sliceLen until the returned function
// is called.
func (w *window) slicer() func() {
	w.slices = []sliceEdge{{at: w.start, ops: w.done.Load(), cpu: processCPU()}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.slices = append(w.slices, sliceEdge{at: time.Now(), ops: w.done.Load(), cpu: processCPU()})
			case <-stop:
				// The window's last slice counts when it ran at least half
				// its length.
				last := w.slices[len(w.slices)-1]
				if now := time.Now(); now.Sub(last.at) >= sliceLen/2 {
					w.slices = append(w.slices, sliceEdge{at: now, ops: w.done.Load(), cpu: processCPU()})
				}
				return
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// snap is everything read at one edge of the window.
type snap struct {
	wall     time.Time
	sim      time.Duration
	st       cedarfs.Stats
	cpuBusy  time.Duration
	procCPU  time.Duration
	gcCPU    float64
	totalCPU float64
	alloc    float64
	// rss is the process's peak resident memory so far, in MB.
	rss float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func takeSnap(b *bed) snap {
	s := snap{sim: b.clk.Now(), st: b.v.Stats(), cpuBusy: b.v.CPU().Busy(), procCPU: processCPU()}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s.gcCPU, s.totalCPU = ms[0].Value.Float64(), ms[1].Value.Float64()
	s.alloc = float64(ms[2].Value.Uint64())
	s.rss = peakRSSMB()
	s.wall = time.Now()
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// measure runs the set-ups, the window and the ending of one run.
func measure(w workload, o options) (*result, error) {
	// Each set-up is timed on both clocks. setup_s is the simulated time,
	// the disk and CPU work set-up charges: the wall time of a set-up of
	// well under a second follows the load on a shared machine by more
	// than a gate can hold.
	var setups, setupWalls []time.Duration
	var b *bed
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			w.discard(b)
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		nb, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(t0))
		// A fresh bed's clock starts at the epoch.
		setups = append(setups, nb.clk.Now())
		b = nb
	}
	runtime.GC()

	win := &window{tr: newTracer(o.workload != "server")}
	warmed := w.warm(b, win)
	before := takeSnap(b)
	win.start = before.wall
	stopSlicer := win.slicer()
	stopPhases := func() []phase { return nil }
	if o.trace {
		stopPhases = win.tr.alternate(b.v, &win.done)
	}
	w.drive(b, win)
	phases := stopPhases()
	stopSlicer()
	after := takeSnap(b)

	end, err := w.finish(b, win)
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	fmt.Printf("peak RSS: %.1f MB when the window began, %.1f MB when it ended, %.1f MB after the ending\n",
		before.rss, after.rss, peak)
	if o.trace {
		if err := win.tr.write(o, phases); err != nil {
			return nil, err
		}
	}

	rec := &recorder{}
	for _, c := range win.callers {
		rec.merge(c.rec)
	}
	if rec.attempted == 0 {
		return nil, errors.New("no operation completed in the window")
	}
	res := &result{attempted: rec.attempted, failed: rec.failed, errSamples: rec.errs.samples}
	res.verdicts = append(res.verdicts, verdict{"reads match writes", rec.mismatches == 0,
		fmt.Sprintf("%d mismatched results", rec.mismatches)})
	res.verdicts = append(res.verdicts, warmed...)
	if w.singleCaller() {
		res.verdicts = append(res.verdicts, accounted(before, after))
	}
	res.verdicts = append(res.verdicts, end.verdicts...)
	res.e2e = endToEnd(rec, win, before, after, end, setups, setupWalls, peak)
	res.layers = perLayer(rec, win, before, after, end, phases, setupWalls)
	return res, nil
}

// accounted checks the simulated clock against the work charged to it:
// with one caller, the window's simulated time is the disk's busy time
// plus the simulated CPU's, to within 1%.
func accounted(before, after snap) verdict {
	busy := after.st.Disk.Sub(before.st.Disk).BusyTime() + after.cpuBusy - before.cpuBusy
	el := after.sim - before.sim
	share := float64(busy) / float64(el)
	return verdict{"simulated time accounted", math.Abs(share-1) <= 0.01,
		fmt.Sprintf("disk busy + CPU busy = %.6f of the window's simulated time", share)}
}

// minGroup is the fewest operations a latency percentile is taken over,
// so at least ten samples lie beyond the p99.
const minGroup = 1000

// wallStats is the window's wall-clock figures: throughput and process
// CPU per operation per full slice, and the latency percentiles per group
// of consecutive slices holding at least minGroup operations.
type wallStats struct {
	rates, cpus, p50s, p99s []float64
	minGroup                int
}

func windowStats(win *window, ops []sample) wallStats {
	var ws wallStats
	full := len(win.slices) - 1
	bySlice := make([][]time.Duration, max(full, 1))
	for _, s := range ops {
		if int(s.slice) < full {
			bySlice[s.slice] = append(bySlice[s.slice], s.wall)
		}
	}
	var group []time.Duration
	flush := func() {
		ws.p50s = append(ws.p50s, us(quantile(group, 0.50)))
		ws.p99s = append(ws.p99s, us(quantile(group, 0.99)))
		if ws.minGroup == 0 || len(group) < ws.minGroup {
			ws.minGroup = len(group)
		}
		group = nil
	}
	for i := 0; i < full; i++ {
		a, b := win.slices[i], win.slices[i+1]
		if n := b.ops - a.ops; n > 0 {
			ws.rates = append(ws.rates, float64(n)/b.at.Sub(a.at).Seconds())
			ws.cpus = append(ws.cpus, us(b.cpu-a.cpu)/float64(n))
		}
		if group = append(group, bySlice[i]...); len(group) >= minGroup {
			flush()
		}
	}
	if len(group) > 0 && len(ws.p50s) == 0 {
		flush()
	}
	return ws
}

func endToEnd(rec *recorder, win *window, before, after snap, end *ending, setups, setupWalls []time.Duration, peak float64) []metric {
	ops := float64(rec.attempted)
	all := append(append([]sample(nil), rec.ops[0]...), rec.ops[1]...)
	ws := windowStats(win, all)
	_, sims := split(all)
	fmt.Printf("window: %d operations in %.3f s; set-ups took %v simulated, %v wall\n",
		rec.attempted, after.wall.Sub(before.wall).Seconds(), setups, setupWalls)
	fmt.Printf("  per %v slice: ops/s %.0f\n", sliceLen, ws.rates)
	fmt.Printf("  per %v slice: cpu us/op %.1f\n", sliceLen, ws.cpus)
	fmt.Printf("  per group of >= %d ops (smallest %d): p50 us %.1f\n", minGroup, ws.minGroup, ws.p50s)
	fmt.Printf("  per group of >= %d ops (smallest %d): p99 us %.1f\n", minGroup, ws.minGroup, ws.p99s)
	fmt.Printf("  not gated (see README): ops_per_s %.6g ops/s, op_p50_us %.6g us, op_p99_us %.6g us, cpu_us_per_op %.6g us, setup_s %.6g s\n",
		median(ws.rates), median(ws.p50s), median(ws.p99s), median(ws.cpus), quantile(slices.Clone(setupWalls), 0.5).Seconds())
	names := make([]string, 0, len(rec.byName))
	for name := range rec.byName {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h := rec.byName[name]
		fmt.Printf("  %-12s n=%-8d p50=%.1f us p99=%.1f us\n", name, h.n, us(h.quantile(0.5)), us(h.quantile(0.99)))
	}
	// The volume's own spans cross-check the core.<call> times the
	// benchmark takes from outside.
	spans := make([]string, 0, len(after.st.Spans))
	for name := range after.st.Spans {
		spans = append(spans, name)
	}
	slices.Sort(spans)
	fmt.Println("  volume spans over the window (Stats().Spans, simulated time):")
	for _, name := range spans {
		a, b := after.st.Spans[name], before.st.Spans[name]
		if n := a.Count - b.Count; n > 0 {
			lat := a.Latency.Sub(b.Latency)
			fmt.Printf("    %-12s n=%-8d errors=%-4d mean=%.3f ms\n", name, n, a.Errors-b.Errors, lat.Mean()/1e6)
		}
	}
	return []metric{
		{"sim_ms_per_op", "ms", ms(after.sim-before.sim) / ops},
		{"sim_op_p99_ms", "ms", ms(quantile(sims, 0.99))},
		{"recovery_sim_s", "s", end.mountSim.Seconds()},
		{"verify_sim_s", "s", end.verifySim.Seconds()},
		{"setup_s", "s", quantile(slices.Clone(setups), 0.5).Seconds()},
		{"peak_rss_mb", "MB", peak},
	}
}

func perLayer(rec *recorder, win *window, before, after snap, end *ending, phases []phase, setupWalls []time.Duration) []metric {
	ops := float64(rec.attempted)
	simEl := after.sim - before.sim
	share := func(d time.Duration) float64 { return float64(d) / float64(simEl) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dk := after.st.Disk.Sub(before.st.Disk)
	cb, ca := before.st.Cache, after.st.Cache
	wb, wa := before.st.Commit, after.st.Commit
	cpu := after.cpuBusy - before.cpuBusy

	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	// The wall-clock figures move too much from run to run on a shared
	// machine to gate; they are reported here from the untraced
	// operations, and throughput and CPU from the untraced phases of a
	// traced run.
	plain := windowStats(win, rec.ops[0])
	rate, cpuPerOp := median(plain.rates), median(plain.cpus)
	if phases != nil {
		rate, cpuPerOp = phaseRates(phases, false)
	}
	add("wall.ops_per_s", "ops/s", rate)
	add("wall.op_p50_us", "us", median(plain.p50s))
	add("wall.op_p99_us", "us", median(plain.p99s))
	add("wall.cpu_us_per_op", "us", cpuPerOp)
	add("wall.setup_s", "s", quantile(slices.Clone(setupWalls), 0.5).Seconds())

	add("disk.ios_per_op", "count/op", float64(dk.Ops)/ops)
	add("disk.sectors_per_op", "count/op", float64(dk.SectorsRead+dk.SectorsWritten)/ops)
	add("disk.xfer_ms_per_op", "ms/op", ms(dk.TransferTime)/ops)
	add("disk.mergeable_share", "share", ratio(float64(dk.MergeableOps), float64(dk.Ops)))
	add("disk.seek_ms_per_op", "ms/op", ms(dk.SeekTime)/ops)
	add("disk.rot_ms_per_op", "ms/op", ms(dk.RotTime)/ops)
	add("disk.busy_share", "share", share(dk.BusyTime()))
	add("cpu.sim_busy_share", "share", share(cpu))
	add("sim.accounted_share", "share", share(cpu+dk.BusyTime()))

	add("wal.forces_per_kop", "count/kop", 1000*float64(wa.Forces-wb.Forces)/ops)
	add("wal.batching_factor", "ratio", ratio(float64(wa.ImagesStaged-wb.ImagesStaged), float64(wa.ImagesLogged-wb.ImagesLogged)))
	add("wal.log_sectors_per_op", "count/op", float64(wa.SectorsWritten-wb.SectorsWritten)/ops)
	forces := rec.calls[0][callForce].wall
	forces.merge(&rec.calls[0][callWait].wall)
	add("wal.force_wall_us_p50", "us", us(forces.quantile(0.50)))
	add("wal.force_wall_us_p99", "us", us(forces.quantile(0.99)))

	hits, misses := float64(ca.Hits-cb.Hits), float64(ca.Misses-cb.Misses)
	add("ntcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	add("ntcache.misses_per_op", "count/op", misses/ops)
	add("ntcache.home_writes_per_op", "count/op", float64(ca.HomeWrites-cb.HomeWrites)/ops)

	dh, dm := float64(ca.Data.Hits-cb.Data.Hits), float64(ca.Data.Misses-cb.Data.Misses)
	add("bufcache.hit_ratio", "ratio", ratio(dh, dh+dm))
	add("bufcache.evictions_per_op", "count/op", float64(ca.Data.Evicted-cb.Data.Evicted)/ops)
	add("bufcache.readahead_sectors_per_op", "count/op", float64(ca.Data.ReadAheadSectors-cb.Data.ReadAheadSectors)/ops)
	add("bufcache.coalesced_reads_per_op", "count/op", float64(ca.Data.CoalescedReads-cb.Data.CoalescedReads)/ops)

	// The core layer is timed by whoever calls the volume: the caller on
	// the local workloads, the server-side decorator on server.
	core := &rec.calls[0]
	if win.server != nil {
		core = &win.server.rec.calls[0]
	}
	for k := callKind(0); k < numCalls; k++ {
		h := &core[k]
		add("core."+callNames[k]+".wall_us_p50", "us", us(h.wall.quantile(0.50)))
		add("core."+callNames[k]+".wall_us_p99", "us", us(h.wall.quantile(0.99)))
		add("core."+callNames[k]+".sim_ms_p50", "ms", ms(h.sim.quantile(0.50)))
	}

	// The traced phases give the exact lags and the window's deepest
	// queue; without them, the histogram's bucket bound and the high-water
	// mark since mount stand in.
	ib, ia := before.st.Intent, after.st.Intent
	lag, depth := win.tr.intents()
	if lag == 0 {
		lag = time.Duration(ia.ApplyLag.Sub(ib.ApplyLag).Quantile(0.99))
	}
	if depth == 0 {
		depth = int64(ia.MaxDepth)
	}
	add("intentq.max_depth", "count", float64(depth))
	add("intentq.apply_lag_p99_ms", "ms", ms(lag))
	add("intentq.reader_waits_per_op", "count/op", float64(ia.ReaderWaits-ib.ReaderWaits)/ops)
	add("intentq.applier_busy_share", "share", share(ia.ApplierBusy-ib.ApplierBusy))

	var p50, p99, reqs, stalls float64
	if win.server != nil {
		p50, p99 = win.server.frontendSelf(rec)
		reqs, stalls = win.server.requests/ops, win.server.stalls
	}
	add("frontend.self_us_p50", "us", p50)
	add("frontend.self_us_p99", "us", p99)
	add("server.requests_per_op", "count/op", reqs)
	add("server.stalls", "count", stalls)

	add("recovery.replay_sim_s", "s", end.replay.Elapsed.Seconds())
	add("recovery.vam_rebuild_sim_s", "s", end.report.VAMElapsed.Seconds())
	add("recovery.log_images", "count", float64(end.report.LogImagesApplied))
	add("verify.walk_sim_s", "s", end.verify.WalkElapsed.Seconds())
	add("verify.check_sim_s", "s", end.verify.CheckElapsed.Seconds())
	add("verify.leader_sim_s", "s", end.verify.LeaderElapsed.Seconds())
	add("verify.check_cpu_sim_s", "s", end.verify.CheckCPU.Seconds())
	add("verify.steals", "count", float64(end.verify.Steals))

	add("go.alloc_bytes_per_op", "B/op", (after.alloc-before.alloc)/ops)
	add("mem.rss_growth_b_per_op", "B/op", (after.rss-before.rss)*(1<<20)/ops)
	add("go.gc_cpu_share", "share", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))

	return append(out, win.tr.selfTimes(rec, win.server, phases)...)
}

func split(ss []sample) (walls, sims []time.Duration) {
	walls = make([]time.Duration, len(ss))
	sims = make([]time.Duration, len(ss))
	for i, s := range ss {
		walls[i], sims[i] = s.wall, s.sim
	}
	return walls, sims
}

// quantile returns the nearest-rank q-quantile of ds, sorting ds in place;
// 0 when ds is empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

// median is the middle value of xs, the mean of the two middle ones for
// an even count; 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
