package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/wal"
)

// ntCRCOff is where the cache stamps a CRC32 into each name-table page; the
// B-tree reserves bytes 10..15 of its header for the storage layer.
const ntCRCOff = 12

// ntPage is one cached name-table page and its logging state.
type ntPage struct {
	id  uint32
	cur []byte // current contents (what the B-tree sees)
	// logged is the snapshot equal to what log replay would reproduce
	// for this page (its content at the last force); it is what a
	// third-crossing flush writes home, so home copies never get ahead
	// of the log (see DESIGN.md).
	logged []byte
	dirty  bool // cur differs from the home copies
	// pendingSeq is the newest log batch holding images staged from this
	// page; the page has undurable staged updates while pendingSeq
	// exceeds the log's committed sequence. (A boolean cannot express
	// this under the pipelined commit: images stage into a batch while
	// an older batch's force is still writing.)
	pendingSeq uint64
	// lastThird tracks, per 512-byte sector, the log division holding
	// that sector's newest image; -1 if none. Logging is sector-granular,
	// so different sectors of one page can live in different thirds.
	lastThird [NTPageSectors]int
	lruSeq    uint64
}

func newNTPage(id uint32, cur []byte) *ntPage {
	p := &ntPage{id: id, cur: cur}
	for j := range p.lastThird {
		p.lastThird[j] = -1
	}
	return p
}

// inLog reports whether any sector of the page has a live logged image.
func (p *ntPage) inLog() bool {
	for _, t := range p.lastThird {
		if t >= 0 {
			return true
		}
	}
	return false
}

// pendingLog reports whether the page has staged images not yet durable,
// given the log's current committed sequence.
func (p *ntPage) pendingLog(committed uint64) bool {
	return p.pendingSeq > committed
}

// ntCache is the write-back cache for file-name-table pages. It implements
// btree.Pager: B-tree reads hit the cache, B-tree writes dirty cached pages
// and stage their sector images for the next group commit. Pages are kept
// logically read-only between updates by CRC-checking on every cache read
// ("this is to catch wild stores").
//
// The cache locks internally: B-tree readers sharing the tree's read lock
// hit it concurrently, and the WAL's force callbacks (onLogged, flushThird)
// enter from the force path while operations run. Page contents stay safe
// without copying because cur is replaced copy-on-write (only under the
// tree's write lock) and never mutated in place.
type ntCache struct {
	v   *Volume
	cap int

	mu    sync.Mutex
	pages map[uint32]*ntPage
	seq   uint64

	// Counters for the benchmarks. Atomic because c.mu is held across the
	// home-write disk I/O (flushThird, flushAll): a Stats snapshot must
	// never block behind a flush in flight.
	hits, misses atomic.Int64
	homeWrites   atomic.Int64
}

func newNTCache(v *Volume, capacity int) *ntCache {
	return &ntCache{v: v, pages: make(map[uint32]*ntPage), cap: capacity}
}

// stats snapshots the cache counters without taking c.mu.
func (c *ntCache) stats() CacheStats {
	return CacheStats{
		Hits:       int(c.hits.Load()),
		Misses:     int(c.misses.Load()),
		HomeWrites: int(c.homeWrites.Load()),
	}
}

// PageSize implements btree.Pager.
func (c *ntCache) PageSize() int { return NTPageSize }

// NumPages implements btree.Pager.
func (c *ntCache) NumPages() int { return c.v.lay.ntPages }

func stampCRC(p []byte) {
	binary.BigEndian.PutUint32(p[ntCRCOff:], 0)
	binary.BigEndian.PutUint32(p[ntCRCOff:], pageCRC(p))
}

func pageCRC(p []byte) uint32 {
	var z [4]byte
	h := crc32.NewIEEE()
	h.Write(p[:ntCRCOff])
	h.Write(z[:])
	h.Write(p[ntCRCOff+4:])
	return h.Sum32()
}

func crcOK(p []byte) bool {
	return binary.BigEndian.Uint32(p[ntCRCOff:]) == pageCRC(p)
}

// Read implements btree.Pager. A miss reads the home copies by the rules of
// pickNT and caches the chosen image.
func (c *ntCache) Read(id uint32) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pages[id]; ok {
		c.hits.Add(1)
		c.v.traceCache(true, id)
		c.seq++
		p.lruSeq = c.seq
		c.v.cpu.Charge(0) // navigation cost charged by callers per op
		if err := checkCachedNT(id, p.cur); err != nil {
			return nil, err
		}
		return p.cur, nil
	}
	c.misses.Add(1)
	c.v.traceCache(false, id)
	data, err := c.v.readNTPage(id)
	if err != nil {
		return nil, err
	}
	p := newNTPage(id, data)
	c.insert(p)
	return p.cur, nil
}

// checkCachedNT catches a wild store into a cached page: cached pages stay
// logically read-only between updates, so a bad CRC means something wrote
// the buffer behind the cache's back.
func checkCachedNT(id uint32, cur []byte) error {
	if !crcOK(cur) && !isVirgin(cur) {
		return fmt.Errorf("core: wild store detected in cached name-table page %d", id)
	}
	return nil
}

// readNTPage reads page id from its home copies, one request per copy, and
// chooses between them by pickNT.
func (v *Volume) readNTPage(id uint32) ([]byte, error) {
	addrA, addrB := v.lay.ntPageAddrs(id)
	bufA, errA := v.readSectorsRetry(addrA, NTPageSectors)
	return v.pickNT(id, bufA, errA, func() ([]byte, error) {
		return v.readSectorsRetry(addrB, NTPageSectors)
	})
}

// pickNT chooses the image of name-table page id from its home copies:
// copy A as read (bufA, errA), and copy B from readB, called at most once.
// A read-only mount's replayed sectors are overlaid on each copy first —
// the mix of stale home sectors and replayed sectors is exactly the page
// log replay would have produced on disk — and a copy is usable when its
// CRC checks or it is virgin. Copy A wins over copy B. Both copies are read
// and checked, per the paper ("when a page is read, both copies are read
// and checked"), unless the volume reads one (ReadOneCopy: B is read only
// when A is unusable) or keeps one (SingleCopyNT: B is never read).
func (v *Volume) pickNT(id uint32, bufA []byte, errA error, readB func() ([]byte, error)) ([]byte, error) {
	usable := func(buf []byte, err error) []byte {
		if err != nil {
			buf = nil
		}
		buf = v.overlayNT(id, buf)
		if buf != nil && (crcOK(buf) || isVirgin(buf)) {
			return buf
		}
		return nil
	}
	a := usable(bufA, errA)
	var b []byte
	if v.cfg.bothNTCopies() {
		b = usable(readB())
		v.cpu.Charge(2 * csumCost)
	} else {
		v.cpu.Charge(csumCost)
		if a == nil && !v.cfg.SingleCopyNT {
			// One-copy read mode falls back to the replica on damage.
			b = usable(readB())
		}
	}
	switch {
	case a != nil:
		return a, nil
	case b != nil:
		return b, nil
	}
	return nil, fmt.Errorf("core: name-table page %d unreadable in all copies (A: %v)", id, errA)
}

// overlayNT applies the in-memory replayed sector images of page id (set
// only by MountReadOnly) over a home copy. buf may be nil for an unreadable
// home copy, in which case the page is reconstructed only when the overlay
// covers all of it. It returns buf unchanged when there is nothing to apply.
func (v *Volume) overlayNT(id uint32, buf []byte) []byte {
	if v.ntOverride == nil {
		return buf
	}
	var imgs [NTPageSectors][]byte
	n := 0
	for j := 0; j < NTPageSectors; j++ {
		if img, ok := v.ntOverride[ntTarget(id, j)]; ok {
			imgs[j] = img
			n++
		}
	}
	if n == 0 || (buf == nil && n < NTPageSectors) {
		return buf
	}
	out := make([]byte, NTPageSize)
	if buf != nil {
		copy(out, buf)
	}
	for j, img := range imgs {
		if img != nil {
			copy(out[j*disk.SectorSize:(j+1)*disk.SectorSize], img)
		}
	}
	return out
}

// isVirgin reports an all-zero page (never written; CRC field legitimately
// absent).
func isVirgin(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// Write implements btree.Pager: update the cached page and stage images of
// the changed sectors for the next group commit. Logging is sector-granular
// — the paper logs 512-byte "physical pages", so a small property update
// inside a 2 KB name-table page produces a one- or two-page log record, not
// four. Nothing touches the home copies here.
func (c *ntCache) Write(id uint32, data []byte) error {
	if len(data) != NTPageSize {
		return fmt.Errorf("core: name-table write of %d bytes", len(data))
	}
	if c.v.log == nil {
		// Read-only mount: mutations are refused far above this, so a
		// write reaching the pager is a bug, not a user error.
		return fmt.Errorf("core: name-table write on read-only volume")
	}
	c.mu.Lock()
	p, ok := c.pages[id]
	if !ok {
		// Cache miss on write: the diff base is unknown. The page may
		// be virgin (all zeroes at home) — or it may have been written
		// before and evicted, in which case its home content is
		// arbitrary. Diffing against zeroes in the latter case would
		// skip sectors that are zero in the new image but stale and
		// nonzero at home, leaving the home copy a mix of old and new
		// sectors under the new CRC — unreadable in both copies. So on
		// a miss every sector is staged unconditionally (ok==false
		// disables the equal-sector skip below).
		p = newNTPage(id, make([]byte, NTPageSize))
		c.insert(p)
	}
	fresh := make([]byte, NTPageSize)
	copy(fresh, data)
	stampCRC(fresh)
	c.v.cpu.Charge(csumCost)
	var images []wal.PageImage
	for j := 0; j < NTPageSectors; j++ {
		lo, hi := j*disk.SectorSize, (j+1)*disk.SectorSize
		if ok && bytes.Equal(fresh[lo:hi], p.cur[lo:hi]) {
			continue
		}
		images = append(images, wal.PageImage{
			Kind:   wal.KindNameTable,
			Target: ntTarget(id, j),
			Data:   fresh[lo:hi],
		})
	}
	p.cur = fresh
	if len(images) == 0 {
		c.mu.Unlock()
		return nil
	}
	p.dirty = true
	c.mu.Unlock()
	// Append outside c.mu: in synchronous mode it forces immediately, and
	// the force's FlushHook re-enters the cache. Callers are serialized by
	// the B-tree's write lock, so releasing here admits no second writer.
	seq, err := c.v.log.Append(images...)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if seq > p.pendingSeq {
		p.pendingSeq = seq
	}
	c.mu.Unlock()
	return nil
}

// insert adds a page, evicting a clean page if over capacity. Dirty or
// pending pages are never evicted ("the 'dirty but logged' pages are kept
// in the cache"); if everything is dirty the cache grows past cap. The
// caller holds c.mu.
func (c *ntCache) insert(p *ntPage) {
	c.seq++
	p.lruSeq = c.seq
	c.pages[p.id] = p
	if len(c.pages) <= c.cap {
		return
	}
	// A read-only mount has no log, and none of its pages has anything
	// staged: every page is committed.
	var committed uint64
	if c.v.log != nil {
		committed = c.v.log.Committed()
	}
	var victim *ntPage
	for _, q := range c.pages {
		if q.dirty || q.pendingLog(committed) || q.inLog() || q == p {
			continue
		}
		if victim == nil || q.lruSeq < victim.lruSeq {
			victim = q
		}
	}
	if victim != nil {
		delete(c.pages, victim.id)
	}
}

// onLogged records that a page image made it into the log (called from the
// WAL once per sector image, on the force path).
func (c *ntCache) onLogged(target uint64, third int, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := uint32(target / NTPageSectors)
	p, ok := c.pages[id]
	if !ok {
		return
	}
	// Snapshot the bytes the log actually wrote — not p.cur, which under
	// the pipelined commit may already hold newer updates staged while
	// this force was writing (and, within one force, sectors whose images
	// ride a later record of the same batch). The snapshot must track the
	// log exactly: it is what a third-crossing flush writes home.
	if p.logged == nil {
		p.logged = make([]byte, NTPageSize)
	}
	sub := int(target % NTPageSectors)
	copy(p.logged[sub*disk.SectorSize:(sub+1)*disk.SectorSize], data)
	p.lastThird[sub] = third
}

// flushThird writes home every sector whose newest logged image is in the
// division about to be overwritten. It writes from the logged snapshot, not
// the possibly newer cache contents, so the home copies never reflect
// updates the log has not yet committed.
func (c *ntCache) flushThird(third int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	imgs := make(map[uint64][]byte)
	for _, p := range c.pages {
		for j, t := range p.lastThird {
			if t == third {
				imgs[ntTarget(p.id, j)] = ntSector(p.logged, j)
			}
		}
	}
	w, err := c.v.writeNTHome(imgs)
	c.homeWrites.Add(int64(w))
	if err != nil {
		return 0, err
	}
	committed := c.v.log.Committed()
	for _, p := range c.pages {
		for j, t := range p.lastThird {
			if t == third {
				p.lastThird[j] = -1
			}
		}
		if !p.pendingLog(committed) && !p.inLog() && p.logged != nil && bytes.Equal(p.logged, p.cur) {
			p.dirty = false
			p.logged = nil
		}
	}
	return len(imgs), nil
}

// flushAll writes home every dirty page; the caller must have forced the
// log first so cur is committed. Used by clean shutdown.
func (c *ntCache) flushAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	imgs := make(map[uint64][]byte)
	for _, p := range c.pages {
		if p.dirty {
			for j := 0; j < NTPageSectors; j++ {
				imgs[ntTarget(p.id, j)] = ntSector(p.cur, j)
			}
		}
	}
	w, err := c.v.writeNTHome(imgs)
	c.homeWrites.Add(int64(w))
	if err != nil {
		return err
	}
	for _, p := range c.pages {
		if p.dirty {
			p.dirty = false
			p.pendingSeq = 0
			for j := range p.lastThird {
				p.lastThird[j] = -1
			}
			p.logged = nil
		}
	}
	return nil
}

// ntTarget is the index of sector sub of name-table page id within one home
// copy: the Target the log records for that sector's images.
func ntTarget(id uint32, sub int) uint64 {
	return uint64(id)*NTPageSectors + uint64(sub)
}

// ntSector returns sector sub of a name-table page image.
func ntSector(page []byte, sub int) []byte {
	return page[sub*disk.SectorSize : (sub+1)*disk.SectorSize]
}

// writeNTHome writes name-table sector images, keyed by ntTarget, to the
// home copies in one address-ordered sweep per copy: consecutive targets
// merge into runs of at most MaxTransferSectors, and every run goes to copy
// A in ascending order before any goes to copy B (skipped under
// SingleCopyNT). The order inside the sweep is free: nothing relies on
// these writes until a later Sync — the anchor advance after a third
// flush, the log reset after replay, the clean stamp at shutdown — so until
// then the log still holds every image, and a run torn by a crash is redone
// exactly as a torn sector would be. It returns the sectors written,
// counted per copy.
func (v *Volume) writeNTHome(imgs map[uint64][]byte) (int, error) {
	targets := sortedKeys(imgs)
	type run struct {
		start uint64
		data  []byte
	}
	var runs []run
	for i := 0; i < len(targets); {
		j := i + 1
		for j < len(targets) && j-i < MaxTransferSectors && targets[j] == targets[j-1]+1 {
			j++
		}
		data := make([]byte, 0, (j-i)*disk.SectorSize)
		for _, tgt := range targets[i:j] {
			data = append(data, imgs[tgt]...)
		}
		runs = append(runs, run{targets[i], data})
		i = j
	}
	bases := []int{v.lay.ntA, v.lay.ntB}
	if v.cfg.SingleCopyNT {
		bases = bases[:1]
	}
	n := 0
	for _, base := range bases {
		for _, r := range runs {
			if err := v.writeSectors(base+int(r.start), r.data); err != nil {
				return n, err
			}
			n += len(r.data) / disk.SectorSize
		}
	}
	return n, nil
}

// sortedKeys returns m's keys in ascending order, so a loop writing m home
// runs in address order rather than Go's randomized map order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// dropAll empties the cache (after crash recovery rewrites home pages).
func (c *ntCache) dropAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pages = make(map[uint32]*ntPage)
}
