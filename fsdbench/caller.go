package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	cedarfs "repro"
)

// callKind is one kind of call into the file system.
type callKind uint8

const (
	callOpen callKind = iota
	callRead
	callWrite
	callCreate
	callClose
	callStat
	callList
	callDelete
	callRename
	callSetKeep
	callTouch
	callForce
	callWait
	numCalls
)

var callNames = [numCalls]string{
	"open", "read", "write", "create", "close", "stat", "list", "delete",
	"rename", "setkeep", "touch", "force", "wait",
}

// sample is one timed operation, on both clocks, and the window slice it
// ended in.
type sample struct {
	wall, sim time.Duration
	slice     int32
}

// callHists holds the times of one kind of call on both clocks.
type callHists struct{ wall, sim hist }

// recorder collects one caller's samples. Index 1 of the outer arrays
// holds what ran while tracing was on. Operations are kept one by one,
// for the window's slices; calls only as histograms.
type recorder struct {
	ops [2][]sample
	// byName holds the untraced operations' wall times by operation name.
	byName     map[string]*hist
	calls      [2][numCalls]callHists
	attempted  int
	failed     int
	mismatches int
	errs       errSampler
}

func (r *recorder) merge(o *recorder) {
	for t := range r.ops {
		r.ops[t] = append(r.ops[t], o.ops[t]...)
		for k := range r.calls[t] {
			r.calls[t][k].wall.merge(&o.calls[t][k].wall)
			r.calls[t][k].sim.merge(&o.calls[t][k].sim)
		}
	}
	for name, h := range o.byName {
		r.nameHist(name).merge(h)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatches += o.mismatches
	r.errs.merge(&o.errs)
}

func (r *recorder) nameHist(name string) *hist {
	if r.byName == nil {
		r.byName = make(map[string]*hist)
	}
	h := r.byName[name]
	if h == nil {
		h = &hist{}
		r.byName[name] = h
	}
	return h
}

// record adds one call of kind k.
func (r *recorder) record(traced bool, k callKind, wall, sim time.Duration) {
	h := &r.calls[b2i(traced)][k]
	h.wall.add(wall)
	h.sim.add(sim)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// caller is one closed-loop client: it times every operation and every
// file-system call inside it, on the wall clock and the simulated clock.
type caller struct {
	fs  cedarfs.FS
	v   *cedarfs.Volume // Touch is not part of cedarfs.FS
	clk *cedarfs.VirtualClock
	rec *recorder
	win *window
	tr  *tracer
	ctx context.Context

	traced   bool
	opID     int64
	opWall   time.Time
	opSim    time.Duration
	opFailed bool
}

func newCaller(fs cedarfs.FS, b *bed, w *window) *caller {
	return &caller{fs: fs, v: b.v, clk: b.clk, rec: &recorder{}, win: w, tr: w.tr, ctx: context.Background()}
}

// begin starts one logical operation.
func (c *caller) begin() {
	c.traced = c.tr.on.Load()
	if c.traced {
		c.opID = c.tr.newID()
	}
	c.opFailed = false
	c.opSim = c.clk.Now()
	c.opWall = time.Now()
}

// end closes the operation begin started.
func (c *caller) end(name string) {
	wall := time.Since(c.opWall)
	sim := c.clk.Now() - c.opSim
	t := b2i(c.traced)
	c.rec.ops[t] = append(c.rec.ops[t], sample{wall, sim, c.win.slice()})
	if !c.traced {
		c.rec.nameHist(name).add(wall)
	}
	c.win.done.Add(1)
	c.rec.attempted++
	if c.opFailed {
		c.rec.failed++
	}
	if c.traced {
		c.tr.span(span{ID: c.opID, Side: "op", Name: name, Start: c.opWall, Wall: wall, SimStart: c.opSim, Sim: sim})
	}
}

// timed runs one file-system call of kind k inside the current operation.
func (c *caller) timed(k callKind, fn func() error) error {
	var id int64
	if c.traced {
		id = c.tr.enter()
	}
	s0 := c.clk.Now()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	sim := c.clk.Now() - s0
	c.rec.record(c.traced, k, wall, sim)
	if c.traced {
		c.tr.exit(span{ID: id, Parent: c.opID, Side: "call", Name: callNames[k], Start: t0, Wall: wall, SimStart: s0, Sim: sim})
	}
	if err != nil {
		c.fail(callNames[k], err)
	}
	return err
}

func (c *caller) fail(what string, err error) {
	c.opFailed = true
	c.rec.errs.add(what + ": " + err.Error())
}

// mismatch records a result that differs from what the caller wrote.
func (c *caller) mismatch(format string, args ...any) {
	c.opFailed = true
	c.rec.mismatches++
	c.rec.errs.add("mismatch: " + fmt.Sprintf(format, args...))
}

func (c *caller) open(name string) (h cedarfs.Handle, err error) {
	err = c.timed(callOpen, func() error {
		h, err = c.fs.Open(c.ctx, name, 0)
		return err
	})
	return h, err
}

func (c *caller) create(name string, data []byte) error {
	var h cedarfs.Handle
	if err := c.timed(callCreate, func() (err error) {
		h, err = c.fs.Create(c.ctx, name, data)
		return err
	}); err != nil {
		return err
	}
	return c.close(h)
}

func (c *caller) close(h cedarfs.Handle) error { return c.timed(callClose, h.Close) }

// readAll reads the whole of h into buf[:size]; reaching the end of the
// file exactly is success.
func (c *caller) readAll(h cedarfs.Handle, p []byte) error {
	return c.timed(callRead, func() error {
		n, err := h.ReadAt(c.ctx, p, 0)
		if n == len(p) && errors.Is(err, io.EOF) {
			err = nil
		}
		if err == nil && n != len(p) {
			err = fmt.Errorf("short read: %d of %d bytes", n, len(p))
		}
		return err
	})
}

// openRead opens name, reads its size bytes into buf and closes it; the
// returned slice is nil when any call failed.
func (c *caller) openRead(name string, size int, buf []byte) []byte {
	h, err := c.open(name)
	if err != nil {
		return nil
	}
	if got := int(h.Info().ByteSize); got != size {
		c.mismatch("%s: size %d, wrote %d", name, got, size)
		c.close(h)
		return nil
	}
	p := buf[:size]
	rerr := c.readAll(h, p)
	if c.close(h) != nil || rerr != nil {
		return nil
	}
	return p
}

func (c *caller) stat(name string) (fi cedarfs.FileInfo, err error) {
	err = c.timed(callStat, func() error {
		fi, err = c.fs.Stat(c.ctx, name, 0)
		return err
	})
	return fi, err
}

func (c *caller) list(prefix string) (out []cedarfs.FileInfo, err error) {
	err = c.timed(callList, func() error {
		out, err = c.fs.List(c.ctx, prefix)
		return err
	})
	return out, err
}

func (c *caller) del(name string) error {
	return c.timed(callDelete, func() error { return c.fs.Delete(c.ctx, name, 0) })
}

func (c *caller) rename(from, to string) error {
	return c.timed(callRename, func() error { return c.fs.Rename(c.ctx, from, to) })
}

func (c *caller) setKeep(name string, keep uint16) error {
	return c.timed(callSetKeep, func() error { return c.fs.SetKeep(c.ctx, name, keep) })
}

func (c *caller) touch(name string) error {
	return c.timed(callTouch, func() error { return c.v.Touch(name, 0) })
}

func (c *caller) force() error {
	return c.timed(callForce, func() error {
		_, err := c.fs.Force(c.ctx)
		return err
	})
}

func (c *caller) wait(seq uint64) error {
	return c.timed(callWait, func() error { return c.fs.WaitCommitted(c.ctx, seq) })
}
