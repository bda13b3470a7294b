package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cedarfs "repro"
	"repro/client"
	"repro/internal/server"
)

// srvWorkload sends small-file mutations like hotspot's over loopback TCP
// through client, wire, server and the intent queue: the volume runs the
// asynchronous apply path with the adaptive group commit (the soak's
// configuration), served by server.New over serverSide, a decorator of
// NewLocalFS that times every call the server makes. Closed-loop callers,
// two by default, share one client with two connections, each in its own
// namespace of at most srvWorkingSet files. It runs the async twin of
// every mutation, which hotspot bypasses, plus the front end.
type srvWorkload struct {
	callers int
	pool    [][]byte
	base    []int32 // payloads of the shared files set-up creates
	plans   []*srvPlan

	// The state of the set-up volume.
	side   *serverSide
	srv    *server.Server
	served chan error
	cl     *client.Client
	models []*srvModel
}

// srvPlan is one caller's pre-generated inputs.
type srvPlan struct {
	prefix  string
	prefill []int32 // payloads of the files set-up creates
	ops     []srvOp
	names   []string // names of created files, in create order
}

type srvOp struct {
	kind    uint8
	r       uint32 // picks a file of the working set
	payload int32
}

const (
	srvRead = iota
	srvWrite
	srvCreate
	srvStat
	srvList
	srvDelete
	srvForce
	srvWait
)

var srvOpNames = []string{"read", "write", "create", "stat", "list", "delete", "force", "wait"}

// srvMix is the soak's mix, in percent, in srvOpNames order.
var srvMix = []int{40, 20, 15, 10, 5, 5, 3, 2}

const (
	srvPayloadMin = 256
	srvPayloadMax = 2048
	srvPayloads   = 1024
	// srvBaseFiles are created at set-up so the served volume is not
	// empty; the callers leave them alone, and they must survive the crash.
	srvBaseFiles = 2000
	// srvWorkingSet bounds the files a caller holds; a create past it
	// replaces a random one and deletes it.
	srvWorkingSet = 16
	// srvOpsPerSecond sizes the window: the callers share this many
	// operations for each second of --seconds, about a second's worth on a
	// 2-vCPU machine.
	srvOpsPerSecond = 9000
)

// srvModel is one caller's model of its namespace.
type srvModel struct {
	files []srvFile
	ws    []int32 // working set, indices into files
	next  int     // next name of plan.names
	// live counts the files that exist; unsure counts the creates and
	// deletes that failed, after which the count is unknown.
	live, unsure int
}

// srvFile is a file as its bytes were written: the payloads of its create
// and of each append, in order.
type srvFile struct {
	name      string
	segs      []int32
	size      int
	deleted   bool
	uncertain bool
}

func newServer(seed int64, callers, seconds int) *srvWorkload {
	rng := rand.New(rand.NewSource(seed))
	s := &srvWorkload{callers: callers}
	for i := 0; i < srvPayloads; i++ {
		s.pool = append(s.pool, randomBytes(rng, srvPayloadMin+rng.Intn(srvPayloadMax-srvPayloadMin+1)))
	}
	for i := 0; i < srvBaseFiles; i++ {
		s.base = append(s.base, int32(rng.Intn(srvPayloads)))
	}
	for id := 0; id < callers; id++ {
		p := &srvPlan{prefix: fmt.Sprintf("srv/c%d/", id)}
		for i := 0; i < srvWorkingSet; i++ {
			p.prefill = append(p.prefill, int32(rng.Intn(srvPayloads)))
		}
		p.ops = make([]srvOp, srvOpsPerSecond*seconds/callers)
		for i := range p.ops {
			op := srvOp{kind: uint8(pick(rng, srvMix)), r: rng.Uint32(), payload: int32(rng.Intn(srvPayloads))}
			p.ops[i] = op
		}
		// Every op may become a create when the working set is empty.
		for i := range p.ops {
			p.names = append(p.names, fmt.Sprintf("%sf%d", p.prefix, i))
		}
		s.plans = append(s.plans, p)
	}
	return s
}

// asyncConfig is the server workload's volume: the soak's asynchronous
// apply path with the adaptive group commit under a half-second ceiling.
func asyncConfig() cedarfs.Config {
	c := stagedConfig()
	c.AsyncApply = true
	c.AdaptiveCommit = true
	return c
}

func (s *srvWorkload) config() cedarfs.Config { return asyncConfig() }

func (s *srvWorkload) describe() string {
	var mix []string
	for i, w := range srvMix {
		mix = append(mix, fmt.Sprintf("%s=%d", srvOpNames[i], w))
	}
	return fmt.Sprintf("server: %d closed-loop callers over client.Dial with 2 connections to server.New on 127.0.0.1 (loopback only); mix %s; payloads %d-%d B; working set %d files per caller",
		s.callers, strings.Join(mix, ","), srvPayloadMin, srvPayloadMax, srvWorkingSet)
}

func (s *srvWorkload) setup() (*bed, error) {
	b, err := newBed(s.config())
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	fs := cedarfs.NewLocalFS(b.v)
	for i, pay := range s.base {
		h, err := fs.Create(ctx, baseName(i), s.pool[pay])
		if err != nil {
			b.v.Crash()
			return nil, fmt.Errorf("create %s: %w", baseName(i), err)
		}
		h.Close()
	}
	s.side = &serverSide{fs: fs, v: b.v, clk: b.clk}
	s.srv = server.New(s.side, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.v.Crash()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.cl, err = client.Dial(ln.Addr().String(), client.Options{Conns: 2})
	if err != nil {
		s.discard(b)
		return nil, fmt.Errorf("dial: %w", err)
	}
	s.models = nil
	for _, p := range s.plans {
		m := &srvModel{live: len(p.prefill)}
		for i, pay := range p.prefill {
			name := fmt.Sprintf("%sp%d", p.prefix, i)
			h, err := s.cl.Create(ctx, name, s.pool[pay])
			if err != nil {
				s.discard(b)
				return nil, fmt.Errorf("create %s: %w", name, err)
			}
			h.Close()
			m.ws = append(m.ws, int32(len(m.files)))
			m.files = append(m.files, srvFile{name: name, segs: []int32{pay}, size: len(s.pool[pay])})
		}
		s.models = append(s.models, m)
	}
	if _, err := s.cl.Force(ctx); err != nil {
		s.discard(b)
		return nil, fmt.Errorf("force after setup: %w", err)
	}
	return b, nil
}

func baseName(i int) string { return fmt.Sprintf("srv/base/f%04d", i) }

// stop closes the client and the server and waits for Serve to return.
func (s *srvWorkload) stop() {
	if s.cl != nil {
		s.cl.Close()
		s.cl = nil
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.served
		s.srv = nil
	}
}

func (s *srvWorkload) discard(b *bed) {
	s.stop()
	b.v.Crash()
}

func (s *srvWorkload) singleCaller() bool { return false }

// warm does nothing: set-up leaves the server's caches as a running
// server has them.
func (s *srvWorkload) warm(b *bed, w *window) []verdict { return nil }

func (s *srvWorkload) drive(b *bed, w *window) {
	w.server = s.side
	s.side.start(w.tr)
	before := s.srv.Stats()
	var wg sync.WaitGroup
	for id, p := range s.plans {
		c := newCaller(s.cl, b, w)
		w.callers = append(w.callers, c)
		wg.Add(1)
		go func(m *srvModel) {
			defer wg.Done()
			s.callerLoop(c, p, m)
		}(s.models[id])
	}
	wg.Wait()
	after := s.srv.Stats()
	s.side.requests = float64(after.Requests - before.Requests)
	s.side.stalls = float64(after.Stalls - before.Stalls)
}

func (s *srvWorkload) callerLoop(c *caller, p *srvPlan, m *srvModel) {
	buf := make([]byte, 0, 64<<10)
	for _, op := range p.ops {
		kind := op.kind
		if len(m.ws) == 0 && (kind == srvRead || kind == srvWrite || kind == srvStat || kind == srvDelete) {
			kind = srvCreate
		}
		c.begin()
		switch kind {
		case srvCreate:
			name := p.names[m.next]
			m.next++
			f := srvFile{name: name, segs: []int32{op.payload}, size: len(s.pool[op.payload])}
			if c.create(name, s.pool[op.payload]) != nil {
				f.uncertain = true
				m.files = append(m.files, f)
				m.unsure++
				break
			}
			m.live++
			idx := int32(len(m.files))
			m.files = append(m.files, f)
			if len(m.ws) < srvWorkingSet {
				m.ws = append(m.ws, idx)
				break
			}
			// The new file replaces one of the working set, which is
			// deleted, so the namespace a list returns stays the same size
			// all run.
			slot := int(op.r) % len(m.ws)
			old := &m.files[m.ws[slot]]
			m.ws[slot] = idx
			if c.del(old.name) != nil {
				old.uncertain = true
				m.unsure++
			} else {
				old.deleted = true
				m.live--
			}
		case srvRead:
			f := &m.files[m.ws[int(op.r)%len(m.ws)]]
			if f.size > cap(buf) {
				buf = make([]byte, 0, 2*f.size)
			}
			if got := c.openRead(f.name, f.size, buf[:cap(buf)]); got != nil && !s.matches(got, f) {
				c.mismatch("%s: content differs from what was written", f.name)
			}
		case srvWrite:
			slot := int(op.r) % len(m.ws)
			f := &m.files[m.ws[slot]]
			if !s.appendTo(c, f, op.payload) {
				f.uncertain = true
				m.ws = append(m.ws[:slot], m.ws[slot+1:]...)
			}
		case srvStat:
			f := &m.files[m.ws[int(op.r)%len(m.ws)]]
			if fi, err := c.stat(f.name); err == nil && fi.ByteSize != uint64(f.size) {
				c.mismatch("stat %s: size %d, want %d", f.name, fi.ByteSize, f.size)
			}
		case srvList:
			if fis, err := c.list(p.prefix); err == nil && m.unsure == 0 && len(fis) != m.live {
				c.mismatch("list %s: %d entries, want %d", p.prefix, len(fis), m.live)
			}
		case srvDelete:
			slot := int(op.r) % len(m.ws)
			f := &m.files[m.ws[slot]]
			m.ws = append(m.ws[:slot], m.ws[slot+1:]...)
			if c.del(f.name) != nil {
				f.uncertain = true
				m.unsure++
			} else {
				f.deleted = true
				m.live--
			}
		case srvForce:
			c.force()
		case srvWait:
			c.wait(s.cl.LastCommitSeq())
		}
		c.end(srvOpNames[kind])
	}
}

// appendTo appends a payload at the end of f through open, write, close.
func (s *srvWorkload) appendTo(c *caller, f *srvFile, payload int32) bool {
	h, err := c.open(f.name)
	if err != nil {
		return false
	}
	if got := h.Info().ByteSize; got != uint64(f.size) {
		c.mismatch("%s: size %d before append, want %d", f.name, got, f.size)
		c.close(h)
		return false
	}
	data := s.pool[payload]
	werr := c.timed(callWrite, func() error {
		_, _, err := h.WriteAt(c.ctx, data, int64(f.size))
		return err
	})
	if c.close(h) != nil || werr != nil {
		return false
	}
	f.segs = append(f.segs, payload)
	f.size += len(data)
	return true
}

// matches reports whether got is f's content.
func (s *srvWorkload) matches(got []byte, f *srvFile) bool {
	for _, seg := range f.segs {
		p := s.pool[seg]
		if len(got) < len(p) || !bytes.Equal(got[:len(p)], p) {
			return false
		}
		got = got[len(p):]
	}
	return len(got) == 0
}

// finish makes everything the callers were acknowledged durable with one
// WaitCommitted, checks the front end's health, stops it, and then
// crashes the volume: every file must come back, every deleted one stay
// gone.
func (s *srvWorkload) finish(b *bed, w *window) (*ending, error) {
	ctx := context.Background()
	var verdicts []verdict
	werr := s.cl.WaitCommitted(ctx, s.cl.LastCommitSeq())
	verdicts = append(verdicts, verdict{"final WaitCommitted", werr == nil, fmt.Sprint(werr)})
	st := s.srv.Stats()
	proto := st.ProtocolErrors + s.cl.ProtocolErrors()
	verdicts = append(verdicts, verdict{"protocol errors", proto == 0, fmt.Sprintf("%d", proto)})
	health := b.v.Health()
	verdicts = append(verdicts, verdict{"volume health", health == cedarfs.HealthHealthy,
		strings.TrimSpace(health.String() + " " + b.v.HealthReason())})
	s.stop()

	end, err := crashAndRemount(b)
	if err != nil {
		return nil, err
	}
	end.verdicts = append(verdicts, end.verdicts...)
	var files []expectFile
	for i, pay := range s.base {
		files = append(files, expectFile{baseName(i), s.pool[pay]})
	}
	skipped := 0
	for _, m := range s.models {
		for i := range m.files {
			f := &m.files[i]
			switch {
			case f.uncertain:
				skipped++
			case f.deleted:
				files = append(files, expectFile{f.name, nil})
			default:
				var data []byte
				for _, seg := range f.segs {
					data = append(data, s.pool[seg]...)
				}
				files = append(files, expectFile{f.name, data})
			}
		}
	}
	v := checkFiles(b.v, "files after crash", files)
	v.detail += fmt.Sprintf(", %d skipped after failed ops", skipped)
	end.verdicts = append(end.verdicts, v)
	if err := b.v.Shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return end, nil
}

// serverSide is the FS the server serves: it passes every call to the
// local adapter and times it, so the front end's own time is the
// client-side latency minus this. It forwards the intent-queue depth and
// the commit sequence the server reads from the local adapter.
type serverSide struct {
	fs  cedarfs.FS
	v   *cedarfs.Volume
	clk *cedarfs.VirtualClock
	tr  atomic.Pointer[tracer]

	mu  sync.Mutex
	rec recorder

	// requests and stalls are the server's counters over the window.
	requests, stalls float64
}

// start begins the window: the calls of set-up are dropped.
func (s *serverSide) start(tr *tracer) {
	s.mu.Lock()
	s.rec = recorder{}
	s.mu.Unlock()
	s.tr.Store(tr)
}

func (s *serverSide) IntentDepth() int  { return s.v.IntentDepth() }
func (s *serverSide) CommitSeq() uint64 { return s.v.CommitSeq() }

func (s *serverSide) timed(k callKind, fn func() error) error {
	tr := s.tr.Load()
	traced := tr != nil && tr.on.Load()
	s0 := s.clk.Now()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	sim := s.clk.Now() - s0
	s.mu.Lock()
	s.rec.record(traced, k, wall, sim)
	s.mu.Unlock()
	if traced {
		tr.span(span{ID: tr.newID(), Side: "server", Name: callNames[k], Start: t0, Wall: wall, SimStart: s0, Sim: sim})
	}
	return err
}

func (s *serverSide) Open(ctx context.Context, name string, version uint32) (h cedarfs.Handle, err error) {
	err = s.timed(callOpen, func() error {
		h, err = s.fs.Open(ctx, name, version)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &sideHandle{Handle: h, s: s}, nil
}

func (s *serverSide) Create(ctx context.Context, name string, data []byte) (h cedarfs.Handle, err error) {
	err = s.timed(callCreate, func() error {
		h, err = s.fs.Create(ctx, name, data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &sideHandle{Handle: h, s: s}, nil
}

func (s *serverSide) Stat(ctx context.Context, name string, version uint32) (fi cedarfs.FileInfo, err error) {
	err = s.timed(callStat, func() error {
		fi, err = s.fs.Stat(ctx, name, version)
		return err
	})
	return fi, err
}

func (s *serverSide) List(ctx context.Context, prefix string) (out []cedarfs.FileInfo, err error) {
	err = s.timed(callList, func() error {
		out, err = s.fs.List(ctx, prefix)
		return err
	})
	return out, err
}

func (s *serverSide) Rename(ctx context.Context, oldName, newName string) error {
	return s.timed(callRename, func() error { return s.fs.Rename(ctx, oldName, newName) })
}

func (s *serverSide) Delete(ctx context.Context, name string, version uint32) error {
	return s.timed(callDelete, func() error { return s.fs.Delete(ctx, name, version) })
}

func (s *serverSide) SetKeep(ctx context.Context, name string, keep uint16) error {
	return s.timed(callSetKeep, func() error { return s.fs.SetKeep(ctx, name, keep) })
}

func (s *serverSide) Force(ctx context.Context) (seq uint64, err error) {
	err = s.timed(callForce, func() error {
		seq, err = s.fs.Force(ctx)
		return err
	})
	return seq, err
}

func (s *serverSide) WaitCommitted(ctx context.Context, seq uint64) error {
	return s.timed(callWait, func() error { return s.fs.WaitCommitted(ctx, seq) })
}

func (s *serverSide) Stats(ctx context.Context) (cedarfs.FSStats, error) { return s.fs.Stats(ctx) }
func (s *serverSide) Close() error                                       { return s.fs.Close() }

// frontendSelf is the client-side latency minus the server-side call time
// for each call kind, at the median and at p99, averaged over the kinds
// weighted by their client-side counts, in microseconds.
func (s *serverSide) frontendSelf(client *recorder) (p50, p99 float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range client.calls[0] {
		cw, sw := &client.calls[0][k].wall, &s.rec.calls[0][k].wall
		if cw.n == 0 || sw.n == 0 {
			continue
		}
		p50 += float64(cw.n) * (us(cw.quantile(0.50)) - us(sw.quantile(0.50)))
		p99 += float64(cw.n) * (us(cw.quantile(0.99)) - us(sw.quantile(0.99)))
		n += int(cw.n)
	}
	if n == 0 {
		return 0, 0
	}
	return p50 / float64(n), p99 / float64(n)
}

// sideHandle times the handle calls the server makes.
type sideHandle struct {
	cedarfs.Handle
	s *serverSide
}

func (h *sideHandle) ReadAt(ctx context.Context, p []byte, off int64) (n int, err error) {
	err = h.s.timed(callRead, func() error {
		n, err = h.Handle.ReadAt(ctx, p, off)
		if errors.Is(err, io.EOF) {
			return nil // EOF at the end of the file is the normal outcome
		}
		return err
	})
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

func (h *sideHandle) WriteAt(ctx context.Context, p []byte, off int64) (n int, seq uint64, err error) {
	err = h.s.timed(callWrite, func() error {
		n, seq, err = h.Handle.WriteAt(ctx, p, off)
		return err
	})
	return n, seq, err
}

func (h *sideHandle) Close() error { return h.s.timed(callClose, h.Handle.Close) }
