package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	cedarfs "repro"
)

// hotspot is small-file metadata work on a staged volume. Set-up creates
// 12,000 files of 200 B to 4 KB in 64 directories, so the name table is
// about 2.3 times its 512-page cache. One caller then picks half of its
// files from a 40-file hot directory — the bulk-update pattern group
// commit absorbs — and half uniformly from the whole table. The group
// commit, the name-table cache misses and the small-file allocator do the
// work; the data path moves little. The run ends in a crash, a timed mount
// (log replay and allocation-map rebuild) and Verify.
type hotspot struct {
	pool    [][]byte // payloads
	base    []string // each file's name at set-up
	dir     []int32  // each file's directory
	dirs    []string // directory prefixes
	dirSize []int    // files per directory; renames stay in the directory
	initial []int32  // each file's payload at set-up
	ops     []hsOp
	renames []string // rename targets, in op order

	files []hsFile
	next  int // index of the next operation
	buf   []byte
	// undo holds the state each mutation since the last completed Force
	// replaced, oldest first.
	undo []hsUndo
}

// hsFile is the model of one file's newest version.
type hsFile struct {
	name    string
	ver     uint32
	payload int32
	// uncertain is set when a mutation of the file failed, so its state
	// is unknown; later operations on it are skipped, and so is its check
	// after the crash.
	uncertain bool
}

type hsUndo struct {
	file int32
	prev hsFile
}

type hsOp struct {
	kind uint8
	file int32
	arg  int32 // payload for newversion, target index for rename
}

const (
	hsStat = iota
	hsRead
	hsTouch
	hsNewVersion
	hsList
	hsRename
	hsForce
)

var hsOpNames = []string{"stat", "read", "touch", "newversion", "list", "rename", "force"}

// hsMix is the share of each operation, in percent, in hsOpNames order.
var hsMix = []int{25, 25, 20, 15, 4, 8, 3}

const (
	hsFiles    = 12000
	hsDirs     = 64
	hsHotFiles = 40
	hsPayloads = 1024
	hsKeep     = 1
	// hsWarmOps run before the window: about as many as the name-table
	// cache takes to fill after set-up dropped it.
	hsWarmOps = 20000
	// hsOpsPerSecond sizes the window: it runs this many operations for
	// each second of --seconds, about a second's worth on a 2-vCPU
	// machine.
	hsOpsPerSecond = 25000
	// hsCrashTail is how many operations run after the log crosses into
	// a new third and before the crash.
	hsCrashTail = 2000
	// hsEndOps follow the window for the ending: a third of the log holds
	// about 450 operations' records, so this reaches the next third with
	// a wide margin and runs hsCrashTail more.
	hsEndOps = 10 * hsCrashTail
)

func newHotspot(seed int64, seconds int) *hotspot {
	rng := rand.New(rand.NewSource(seed))
	h := &hotspot{buf: make([]byte, 4096)}
	for i := 0; i < hsPayloads; i++ {
		h.pool = append(h.pool, randomBytes(rng, 200+rng.Intn(4096-200+1)))
	}
	for d := 0; d < hsDirs; d++ {
		h.dirs = append(h.dirs, fmt.Sprintf("hs/d%02d/", d))
	}
	h.dirSize = make([]int, hsDirs)
	for i := 0; i < hsFiles; i++ {
		d := 0 // the hot directory holds the first hsHotFiles files
		if i >= hsHotFiles {
			d = 1 + (i-hsHotFiles)%(hsDirs-1)
		}
		h.dir = append(h.dir, int32(d))
		h.dirSize[d]++
		h.base = append(h.base, fmt.Sprintf("%sf%05d", h.dirs[d], i))
		h.initial = append(h.initial, int32(rng.Intn(hsPayloads)))
	}
	n := hsWarmOps + hsOpsPerSecond*seconds + hsEndOps
	h.ops = make([]hsOp, n)
	for i := range h.ops {
		op := hsOp{kind: uint8(pick(rng, hsMix))}
		if rng.Intn(2) == 0 {
			op.file = int32(rng.Intn(hsHotFiles))
		} else {
			op.file = int32(rng.Intn(hsFiles))
		}
		switch op.kind {
		case hsNewVersion:
			op.arg = int32(rng.Intn(hsPayloads))
		case hsRename:
			op.arg = int32(len(h.renames))
			h.renames = append(h.renames, fmt.Sprintf("%s.r%d", h.base[op.file], i))
		}
		h.ops[i] = op
	}
	return h
}

// pick draws an index with probability proportional to its weight.
func pick(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	r := rng.Intn(total)
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

func (h *hotspot) config() cedarfs.Config { return stagedConfig() }

func (h *hotspot) describe() string {
	var mix []string
	for i, w := range hsMix {
		mix = append(mix, fmt.Sprintf("%s=%d", hsOpNames[i], w))
	}
	return fmt.Sprintf("hotspot: %d files of 200 B-4 KB in %d directories, %d-file hot directory takes half the picks; mix %s; newversion keeps %d version; one closed-loop caller through NewLocalFS",
		hsFiles, hsDirs, hsHotFiles, strings.Join(mix, ","), hsKeep)
}

func (h *hotspot) setup() (*bed, error) {
	b, err := newBed(h.config())
	if err != nil {
		return nil, err
	}
	fs := cedarfs.NewLocalFS(b.v)
	ctx := context.Background()
	h.files = make([]hsFile, hsFiles)
	h.undo = h.undo[:0]
	h.next = 0
	for i := range h.files {
		h.files[i] = hsFile{name: h.base[i], ver: 1, payload: h.initial[i]}
		fh, err := fs.Create(ctx, h.base[i], h.pool[h.initial[i]])
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", h.base[i], err)
		}
		fh.Close()
		// Each file keeps one version, so a new version retires the old
		// one and the name table holds the same number of entries all run.
		if err := fs.SetKeep(ctx, h.base[i], hsKeep); err != nil {
			return nil, fmt.Errorf("setkeep %s: %w", h.base[i], err)
		}
	}
	return b, settle(b)
}

func (h *hotspot) discard(b *bed) { b.v.Crash() }

func (h *hotspot) singleCaller() bool { return true }

// warm runs hsWarmOps operations before the window.
func (h *hotspot) warm(b *bed, w *window) []verdict {
	return warmUp(b, w, hsWarmOps, h.step)
}

// drive runs the window's operations.
func (h *hotspot) drive(b *bed, w *window) {
	c := newCaller(cedarfs.NewLocalFS(b.v), b, w)
	w.callers = []*caller{c}
	for h.left() > hsEndOps {
		h.step(c)
	}
}

// left is the number of pre-generated operations not yet run.
func (h *hotspot) left() int { return len(h.ops) - h.next }

// step runs the next pre-generated operation. One on a file whose state a
// failed mutation left unknown is skipped: its result could not be checked.
func (h *hotspot) step(c *caller) {
	op := h.ops[h.next]
	h.next++
	f := &h.files[op.file]
	if f.uncertain && op.kind != hsList && op.kind != hsForce {
		return
	}
	c.begin()
	switch op.kind {
	case hsStat:
		fi, err := c.stat(f.name)
		if err == nil && (fi.Version != f.ver || fi.ByteSize != uint64(len(h.pool[f.payload]))) {
			c.mismatch("stat %s: version %d size %d, want %d and %d", f.name, fi.Version, fi.ByteSize, f.ver, len(h.pool[f.payload]))
		}
	case hsRead:
		want := h.pool[f.payload]
		if got := c.openRead(f.name, len(want), h.buf); got != nil && !bytes.Equal(got, want) {
			c.mismatch("%s: content differs from what was written", f.name)
		}
	case hsTouch:
		c.touch(f.name)
	case hsNewVersion:
		prev := *f
		if c.create(f.name, h.pool[op.arg]) != nil {
			f.uncertain = true
		} else {
			h.undo = append(h.undo, hsUndo{op.file, prev})
			f.ver++
			f.payload = op.arg
		}
		if c.setKeep(f.name, hsKeep) != nil {
			f.uncertain = true
		}
	case hsList:
		d := h.dir[op.file]
		if fis, err := c.list(h.dirs[d]); err == nil {
			if n := distinctNames(fis); n != h.dirSize[d] {
				c.mismatch("list %s: %d names, want %d", h.dirs[d], n, h.dirSize[d])
			}
		}
	case hsRename:
		prev := *f
		to := h.renames[op.arg]
		if c.rename(f.name, to) != nil {
			f.uncertain = true
		} else {
			h.undo = append(h.undo, hsUndo{op.file, prev})
			f.name = to
		}
	case hsForce:
		if c.force() == nil {
			h.undo = h.undo[:0]
		}
	}
	c.end(hsOpNames[op.kind])
}

func distinctNames(fis []cedarfs.FileInfo) int {
	n := 0
	for i := range fis {
		if i == 0 || fis[i].Name != fis[i-1].Name {
			n++
		}
	}
	return n
}

// finish crashes the volume without a final Force. Every file no mutation
// touched since the last completed Force must come back exactly; a file
// mutated since then must come back in one of the states it passed
// through after that Force.
func (h *hotspot) finish(b *bed, w *window) (*ending, error) {
	settled := settleLog(b, w, hsCrashTail, h.left, h.step)
	end, err := crashAndRemount(b)
	if err != nil {
		return nil, err
	}
	end.verdicts = append([]verdict{settled}, end.verdicts...)
	states := make(map[int32][]hsFile)
	for _, u := range h.undo {
		states[u.file] = append(states[u.file], u.prev)
	}
	fs := cedarfs.NewLocalFS(b.v)
	ctx := context.Background()
	checked, bad, skipped := 0, 0, 0
	var first string
	for i := range h.files {
		cands := append(states[int32(i)], h.files[i])
		if h.files[i].uncertain {
			skipped++
			continue
		}
		checked++
		var err error
		for _, s := range cands {
			if err = h.matchState(ctx, fs, s); err == nil {
				err = absentExcept(ctx, fs, cands, s.name)
				break
			}
		}
		if err != nil {
			if bad == 0 {
				first = err.Error()
			}
			bad++
		}
	}
	detail := fmt.Sprintf("%d files checked (%d mutated after the last Force), %d wrong, %d skipped after failed ops",
		checked, len(states), bad, skipped)
	if bad > 0 {
		detail += ", first: " + first
	}
	end.verdicts = append(end.verdicts, verdict{"forced state after crash", bad == 0, detail})
	if err := b.v.Shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return end, nil
}

// absentExcept checks that no name a file held in cands other than keep
// exists: a rename is atomic, so the file has exactly one name.
func absentExcept(ctx context.Context, fs cedarfs.FS, cands []hsFile, keep string) error {
	for _, s := range cands {
		if s.name == keep {
			continue
		}
		if _, err := fs.Stat(ctx, s.name, 0); !errors.Is(err, cedarfs.ErrNotFound) {
			return fmt.Errorf("%s: present beside %s (%v)", s.name, keep, err)
		}
	}
	return nil
}

func (h *hotspot) matchState(ctx context.Context, fs cedarfs.FS, s hsFile) error {
	fi, err := fs.Stat(ctx, s.name, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	if fi.Version != s.ver {
		return fmt.Errorf("%s: newest version %d, want %d", s.name, fi.Version, s.ver)
	}
	return matchFile(ctx, fs, s.name, h.pool[s.payload])
}
