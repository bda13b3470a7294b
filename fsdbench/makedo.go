package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	cedarfs "repro"
	paperwl "repro/internal/workload"
)

// makedo is the paper's compile workload at paperwl.DefaultMakeDo's
// scale: 60 modules of 192 KB source and 224–288 KB object plus eight 96 KB
// definitions files, about 27 times the 1 MB data cache. One caller runs
// a fixed number of module compiles. One operation compiles one module: read the source, read
// and touch two definitions files, delete and re-create the object. After
// every tenth module another operation lists the directory. Data transfer
// dominates, so the disk, the data cache and the allocator do the work;
// the name table only hits its cache and the log writes under 2% of the
// sectors moved.
type makedo struct {
	cfg     paperwl.MakeDoConfig
	src     [][]byte
	defs    [][]byte
	objPool [][]byte
	srcName []string
	defName []string
	objName []string
	// defPick and objPick are the seeded choices of every compile: the two
	// definitions files the module consults and the new object's bytes.
	defPick []uint8
	objPick []uint8
	// obj is the objPool index each module's object holds, -1 while it is
	// deleted; next is the index of the next module compile.
	obj  []int
	next int
	buf  []byte
}

const (
	// makedoCompilesPerSecond sizes the window: it runs this many module
	// compiles for each second of --seconds, about a second's worth on a
	// 2-vCPU machine (one list follows every tenth compile).
	makedoCompilesPerSecond = 260
	// makedoEndCompiles follow the window for the ending: a third of the
	// log holds about 50 compiles' records, and one pass runs after the
	// log crosses into the next third.
	makedoEndCompiles = 5 * 60
)

func newMakeDo(seed int64, seconds int) *makedo {
	cfg := paperwl.DefaultMakeDo
	rng := rand.New(rand.NewSource(seed))
	m := &makedo{cfg: cfg, buf: make([]byte, max(cfg.SourceSize, cfg.DefsSize))}
	for i := 0; i < cfg.Defs; i++ {
		m.defs = append(m.defs, randomBytes(rng, cfg.DefsSize))
		m.defName = append(m.defName, fmt.Sprintf("build/defs%02d", i))
	}
	for i := 0; i < cfg.Modules; i++ {
		m.src = append(m.src, randomBytes(rng, cfg.SourceSize))
		m.srcName = append(m.srcName, fmt.Sprintf("build/src%03d", i))
		m.objName = append(m.objName, fmt.Sprintf("build/obj%03d", i))
	}
	// Objects differ in size from compile to compile, by up to an eighth
	// either way around DefaultMakeDo's size.
	for i := 0; i < 4; i++ {
		size := cfg.ObjectSize - cfg.ObjectSize/8 + rng.Intn(cfg.ObjectSize/4+1)
		m.objPool = append(m.objPool, randomBytes(rng, size))
	}
	// One pass of the modules warms the caches, then the window, then the
	// ending.
	n := cfg.Modules + makedoCompilesPerSecond*seconds + makedoEndCompiles
	m.defPick = make([]uint8, 2*n)
	for i := range m.defPick {
		m.defPick[i] = uint8(rng.Intn(cfg.Defs))
	}
	m.objPick = make([]uint8, n)
	for i := range m.objPick {
		m.objPick[i] = uint8(rng.Intn(len(m.objPool)))
	}
	return m
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func (m *makedo) config() cedarfs.Config { return stagedConfig() }

// stagedConfig is the volume of the two local workloads: the staged
// mutation path with the paper's fixed half-second group commit, the
// default caches written out, and Verify at a fixed width of 2.
func stagedConfig() cedarfs.Config {
	return cedarfs.Config{
		GroupCommitInterval: 500 * time.Millisecond,
		CacheSize:           512,
		DataCachePages:      2048,
		CheckWorkers:        2,
	}
}

func (m *makedo) describe() string {
	return fmt.Sprintf("makedo: %d modules, %d KB source, %d KB object (plus or minus an eighth), %d x %d KB defs; one closed-loop caller through NewLocalFS",
		m.cfg.Modules, m.cfg.SourceSize/1024, m.cfg.ObjectSize/1024, m.cfg.Defs, m.cfg.DefsSize/1024)
}

func (m *makedo) setup() (*bed, error) {
	b, err := newBed(m.config())
	if err != nil {
		return nil, err
	}
	fs := cedarfs.NewLocalFS(b.v)
	ctx := context.Background()
	create := func(name string, data []byte) error {
		h, err := fs.Create(ctx, name, data)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		return h.Close()
	}
	for i, d := range m.defs {
		if err := create(m.defName[i], d); err != nil {
			return nil, err
		}
	}
	m.obj = make([]int, m.cfg.Modules)
	m.next = 0
	for i := range m.src {
		if err := create(m.srcName[i], m.src[i]); err != nil {
			return nil, err
		}
		m.obj[i] = i % len(m.objPool)
		if err := create(m.objName[i], m.objPool[m.obj[i]]); err != nil {
			return nil, err
		}
	}
	return b, settle(b)
}

// settle makes a freshly set-up volume durable and cold.
func settle(b *bed) error {
	if err := b.v.Force(); err != nil {
		return fmt.Errorf("force after setup: %w", err)
	}
	if err := b.v.DropCaches(); err != nil {
		return fmt.Errorf("drop caches after setup: %w", err)
	}
	return nil
}

func (m *makedo) discard(b *bed) { b.v.Crash() }

func (m *makedo) singleCaller() bool { return true }

// warm compiles one pass of every module before the window.
func (m *makedo) warm(b *bed, w *window) []verdict {
	return warmUp(b, w, m.cfg.Modules, m.compile)
}

// drive runs the window's compiles.
func (m *makedo) drive(b *bed, w *window) {
	c := newCaller(cedarfs.NewLocalFS(b.v), b, w)
	w.callers = []*caller{c}
	for m.left() > makedoEndCompiles {
		m.compile(c)
	}
}

// left is the number of pre-generated compiles not yet run.
func (m *makedo) left() int { return len(m.objPick) - m.next }

// compile runs the next pre-generated module compile, and after every
// tenth module a list of the directory, a separate operation.
func (m *makedo) compile(c *caller) {
	i := m.next
	m.next++
	mod := i % m.cfg.Modules
	read := func(name string, want []byte) {
		if got := c.openRead(name, len(want), m.buf); got != nil && !bytes.Equal(got, want) {
			c.mismatch("%s: content differs from what was written", name)
		}
	}
	c.begin()
	read(m.srcName[mod], m.src[mod])
	for k := 0; k < 2; k++ {
		d := m.defPick[2*i+k]
		read(m.defName[d], m.defs[d])
		c.touch(m.defName[d])
	}
	if c.del(m.objName[mod]) == nil {
		m.obj[mod] = -1
	}
	p := int(m.objPick[i])
	if c.create(m.objName[mod], m.objPool[p]) == nil {
		m.obj[mod] = p
	}
	c.end("compile")
	if mod%10 == 9 {
		c.begin()
		want := len(m.defs) + len(m.src)
		for _, o := range m.obj {
			if o >= 0 {
				want++
			}
		}
		if fis, err := c.list("build/"); err == nil && len(fis) != want {
			c.mismatch("list build/: %d entries, want %d", len(fis), want)
		}
		c.end("list")
	}
}

func (m *makedo) finish(b *bed, w *window) (*ending, error) {
	settled := settleLog(b, w, m.cfg.Modules, m.left, m.compile)
	if err := b.v.Force(); err != nil {
		return nil, fmt.Errorf("force before crash: %w", err)
	}
	end, err := crashAndRemount(b)
	if err != nil {
		return nil, err
	}
	end.verdicts = append([]verdict{settled}, end.verdicts...)
	var files []expectFile
	for i := range m.defs {
		files = append(files, expectFile{m.defName[i], m.defs[i]})
	}
	for i := range m.src {
		files = append(files, expectFile{m.srcName[i], m.src[i]})
		var obj []byte
		if m.obj[i] >= 0 {
			obj = m.objPool[m.obj[i]]
		}
		files = append(files, expectFile{m.objName[i], obj})
	}
	end.verdicts = append(end.verdicts, checkFiles(b.v, "files after crash", files))
	if err := b.v.Shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return end, nil
}

// expectFile is a file the volume must hold after the crash; nil data
// means it must be absent.
type expectFile struct {
	name string
	data []byte
}

// checkFiles reads every expected file back from v's newest versions.
func checkFiles(v *cedarfs.Volume, title string, files []expectFile) verdict {
	fs := cedarfs.NewLocalFS(v)
	ctx := context.Background()
	bad := 0
	var first string
	note := func(format string, args ...any) {
		if bad == 0 {
			first = fmt.Sprintf(format, args...)
		}
		bad++
	}
	for _, f := range files {
		if err := matchFile(ctx, fs, f.name, f.data); err != nil {
			note("%v", err)
		}
	}
	detail := fmt.Sprintf("%d files checked, %d wrong", len(files), bad)
	if bad > 0 {
		detail += ", first: " + first
	}
	return verdict{title, bad == 0, detail}
}

// matchFile checks that the newest version of name holds exactly want, or
// that name is absent when want is nil.
func matchFile(ctx context.Context, fs cedarfs.FS, name string, want []byte) error {
	h, err := fs.Open(ctx, name, 0)
	if want == nil {
		if errors.Is(err, cedarfs.ErrNotFound) {
			return nil
		}
		if err == nil {
			h.Close()
		}
		return fmt.Errorf("%s: present after it was deleted (%v)", name, err)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defer h.Close()
	if size := h.Info().ByteSize; size != uint64(len(want)) {
		return fmt.Errorf("%s: size %d, want %d", name, size, len(want))
	}
	got := make([]byte, len(want))
	if n, err := h.ReadAt(ctx, got, 0); n != len(got) || (err != nil && !errors.Is(err, io.EOF)) {
		return fmt.Errorf("%s: read %d of %d bytes: %v", name, n, len(got), err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: content differs", name)
	}
	return nil
}
