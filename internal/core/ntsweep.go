package core

import "fmt"

// The name-table sweep reader: whole-table passes read the home copies the
// way the paper says the table can be processed — "a compact structure with
// a great deal of locality" — in address order, many pages per request,
// rather than a page at a time in B-tree order.

// sweepNTHome reads one home copy (base is ntA or ntB) of the name-table
// pages ids, which must ascend. Consecutive pages merge into runs of at most
// MaxTransferSectors, each read in one request. A run that fails is re-read
// page by page through readSectorsRetry, so a damaged sector costs the same
// retries, health accounting and error as a page-at-a-time read would. fn
// sees every page in ascending order with its image or its read error; the
// image aliases the run's buffer.
func (v *Volume) sweepNTHome(base int, ids []uint32, fn func(id uint32, buf []byte, err error)) {
	const runPages = MaxTransferSectors / NTPageSectors
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && j-i < runPages && ids[j] == ids[j-1]+1 {
			j++
		}
		run := ids[i:j]
		i = j
		if len(run) > 1 {
			if buf, err := v.d.ReadSectors(base+int(run[0])*NTPageSectors, len(run)*NTPageSectors); err == nil {
				for k, id := range run {
					fn(id, buf[k*NTPageSize:(k+1)*NTPageSize], nil)
				}
				continue
			}
		}
		for _, id := range run {
			buf, err := v.readSectorsRetry(base+int(id)*NTPageSectors, NTPageSectors)
			fn(id, buf, err)
		}
	}
}

// walkPage is one page as Verify's walk sees it: the cached image, or the
// home image pickNT chose (or the error it returned).
type walkPage struct {
	img    []byte
	err    error
	cached bool
}

// walkPager is the read-only btree.Pager Verify walks the name table
// through. A cached page wins; every other allocated page was read up front
// by one sweep of the home copies. The walk never touches the cache: no
// page is inserted or evicted and no counter moves.
type walkPager struct {
	v     *Volume
	pages map[uint32]walkPage
}

// newWalkPager snapshots the cache and sweeps the home copies of every page
// in [0, nt.AllocatedPages()) the cache does not hold. The caller holds v.mu
// exclusively with the intent queue drained, so no tree operation can load,
// dirty or evict a page meanwhile; dirty, logged and pending pages are never
// evicted, so an absent page's home copy is its committed content. Copy A is
// swept first, then copy B; a copy-B image is kept only when copy A fails.
func (v *Volume) newWalkPager() *walkPager {
	w := &walkPager{v: v, pages: make(map[uint32]walkPage)}
	c := v.cache
	c.mu.Lock()
	for id, p := range c.pages {
		w.pages[id] = walkPage{img: p.cur, cached: true}
	}
	c.mu.Unlock()
	var absent []uint32
	for id := uint32(0); id < uint32(v.nt.AllocatedPages()); id++ {
		if _, ok := w.pages[id]; !ok {
			absent = append(absent, id)
		}
	}
	v.sweepNTHome(v.lay.ntA, absent, func(id uint32, buf []byte, err error) {
		w.pages[id] = walkPage{img: buf, err: err}
	})
	pick := func(id uint32, readB func() ([]byte, error)) {
		a := w.pages[id]
		img, err := v.pickNT(id, a.img, a.err, readB)
		w.pages[id] = walkPage{img: img, err: err}
	}
	if v.cfg.bothNTCopies() {
		v.sweepNTHome(v.lay.ntB, absent, func(id uint32, buf []byte, err error) {
			pick(id, func() ([]byte, error) { return buf, err })
		})
	} else {
		for _, id := range absent {
			_, addrB := v.lay.ntPageAddrs(id)
			pick(id, func() ([]byte, error) { return v.readSectorsRetry(addrB, NTPageSectors) })
		}
	}
	return w
}

// PageSize implements btree.Pager.
func (w *walkPager) PageSize() int { return NTPageSize }

// NumPages implements btree.Pager.
func (w *walkPager) NumPages() int { return w.v.lay.ntPages }

// Read implements btree.Pager. A page outside the swept range is reachable
// only through a corrupt pointer; it is read the way a cache miss would
// read it, without caching it.
func (w *walkPager) Read(id uint32) ([]byte, error) {
	p, ok := w.pages[id]
	if !ok {
		return w.v.readNTPage(id)
	}
	if p.cached {
		if err := checkCachedNT(id, p.img); err != nil {
			return nil, err
		}
	}
	return p.img, p.err
}

// Write implements btree.Pager; Check and Scan never write.
func (w *walkPager) Write(id uint32, _ []byte) error {
	return fmt.Errorf("core: name-table page %d written during Verify's walk", id)
}
