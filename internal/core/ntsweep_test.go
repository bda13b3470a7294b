package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/disk"
)

// sweepConfig shrinks the name-table cache so a few hundred files make a
// table several times its size.
func sweepConfig() Config {
	cfg := testConfig()
	cfg.CacheSize = 16
	return cfg
}

// fillTable creates n small files across a few directories and forces them
// durable and home.
func fillTable(t *testing.T, v *Volume, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := v.Create(fmt.Sprintf("sw/d%d/f%04d", i%7, i), payload(100+i%300, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if got := v.nt.AllocatedPages(); got <= 2*v.cfg.CacheSize {
		t.Fatalf("table of %d pages is not larger than the %d-page cache", got, v.cfg.CacheSize)
	}
}

// cachedNTPages lists the ids of the pages the name-table cache holds.
func cachedNTPages(v *Volume) []uint32 {
	v.cache.mu.Lock()
	defer v.cache.mu.Unlock()
	return sortedKeys(v.cache.pages)
}

// absentNTPages lists the allocated pages the cache does not hold.
func absentNTPages(v *Volume) []uint32 {
	cached := cachedNTPages(v)
	var absent []uint32
	for id := uint32(0); id < uint32(v.nt.AllocatedPages()); id++ {
		if _, ok := slices.BinarySearch(cached, id); !ok {
			absent = append(absent, id)
		}
	}
	return absent
}

// maxSweepReads is the most requests a coalesced sweep of ids may take:
// each maximal stretch of consecutive pages costs ceil(4·len/64).
func maxSweepReads(ids []uint32) int {
	n := 0
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		n += ((j-i)*NTPageSectors + MaxTransferSectors - 1) / MaxTransferSectors
		i = j
	}
	return n
}

// countNTReads runs fn and returns the disk reads it issued against each
// name-table home copy.
func countNTReads(v *Volume, d *disk.Disk, fn func()) (readsA, readsB int) {
	size := v.lay.ntPages * NTPageSectors
	d.SetOpObserver(func(e disk.OpEvent) {
		switch {
		case e.Write:
		case e.Addr >= v.lay.ntA && e.Addr < v.lay.ntA+size:
			readsA++
		case v.lay.ntB != v.lay.ntA && e.Addr >= v.lay.ntB && e.Addr < v.lay.ntB+size:
			readsB++
		}
	})
	defer d.SetOpObserver(v.observeDiskOp)
	fn()
	return readsA, readsB
}

// verifyThroughCache is the reference Verify: the same three phases, with
// the walk's Check and Scan reading page by page through the cache.
func verifyThroughCache(v *Volume) (VerifyStats, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.verifyTable(v.cache, v.clk.Now(), disk.ReadScattered)
}

// checkSweptVerify runs Verify and asserts it matches the reference walk
// through the cache — problems, entry and leader counts, or the error text
// — that it left the cache untouched, and, when clean, that each home copy
// was read in coalesced runs.
func checkSweptVerify(t *testing.T, v *Volume, d *disk.Disk, clean bool) (VerifyStats, error) {
	t.Helper()
	cachedBefore := cachedNTPages(v)
	statsBefore := v.Stats().Cache
	absent := absentNTPages(v)
	var st VerifyStats
	var err error
	readsA, readsB := countNTReads(v, d, func() { st, err = v.Verify() })

	if got := cachedNTPages(v); !slices.Equal(got, cachedBefore) {
		t.Errorf("Verify changed the cached pages: %v -> %v", cachedBefore, got)
	}
	if got := v.Stats().Cache; got != statsBefore {
		t.Errorf("Verify moved the cache counters: %+v -> %+v", statsBefore, got)
	}
	if clean {
		wantB := 0
		if v.cfg.bothNTCopies() {
			wantB = maxSweepReads(absent)
		}
		if max := maxSweepReads(absent); readsA > max || readsB > wantB {
			t.Errorf("walk of %d absent pages issued %d/%d reads of copies A/B, want at most %d/%d",
				len(absent), readsA, readsB, max, wantB)
		}
	}

	ref, refErr := verifyThroughCache(v)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("Verify error %v, walk through the cache says %v", err, refErr)
	}
	if !slices.Equal(st.Problems, ref.Problems) || st.Entries != ref.Entries || st.Leaders != ref.Leaders {
		t.Fatalf("Verify = %d entries, %d leaders, problems %q; through the cache = %d, %d, %q",
			st.Entries, st.Leaders, st.Problems, ref.Entries, ref.Leaders, ref.Problems)
	}
	return st, err
}

// absentLeaf returns an allocated leaf page the cache does not hold.
func absentLeaf(t *testing.T, v *Volume, d *disk.Disk) uint32 {
	t.Helper()
	for _, id := range absentNTPages(v) {
		a, _ := v.lay.ntPageAddrs(id)
		buf, err := d.ReadSectors(a, NTPageSectors)
		if err == nil && !isVirgin(buf) && btree.LeafEntries(buf, func(_, _ []byte) bool { return false }) == nil {
			return id
		}
	}
	t.Fatal("no absent leaf page")
	return 0
}

// TestVerifySweepMatchesCacheWalk pins Verify's swept walk against the
// page-at-a-time walk through the cache on every kind of volume the copy
// rules distinguish.
func TestVerifySweepMatchesCacheWalk(t *testing.T) {
	const files = 1000
	setup := func(t *testing.T, cfg Config) (*Volume, *disk.Disk) {
		v, d, _ := newTestVolumeWith(t, cfg)
		fillTable(t, v, files)
		return v, d
	}
	wantClean := func(t *testing.T, st VerifyStats, err error, entries int) {
		t.Helper()
		if err != nil || len(st.Problems) != 0 || st.Entries != entries {
			t.Fatalf("Verify = %d entries, problems %q, err %v; want %d clean entries", st.Entries, st.Problems, err, entries)
		}
	}

	t.Run("LargerThanCache", func(t *testing.T) {
		v, d := setup(t, sweepConfig())
		// Empty the cache (the home copies are current after DropCaches):
		// the whole table is one stretch, so the read bound is
		// ceil(4·absent/64) per copy.
		v.cache.dropAll()
		st, err := checkSweptVerify(t, v, d, true)
		wantClean(t, st, err, files)
	})

	t.Run("CopyADecayed", func(t *testing.T) {
		v, d := setup(t, sweepConfig())
		for i, id := range absentNTPages(v) {
			a, _ := v.lay.ntPageAddrs(id)
			switch i % 5 {
			case 0:
				d.CorruptSectors(a+1, 1)
			case 1:
				d.SmashSector(a+2, payload(disk.SectorSize, 0xA5), nil)
			}
		}
		st, err := checkSweptVerify(t, v, d, false)
		wantClean(t, st, err, files)
	})

	t.Run("LeafLostInBothCopies", func(t *testing.T) {
		v, d := setup(t, sweepConfig())
		id := absentLeaf(t, v, d)
		a, b := v.lay.ntPageAddrs(id)
		d.CorruptSectors(a+3, 1)
		d.CorruptSectors(b, 1)
		_, err := checkSweptVerify(t, v, d, false)
		if err == nil {
			t.Fatalf("Verify passed with leaf page %d lost in both copies", id)
		}
	})

	t.Run("DirtyPagesNotHome", func(t *testing.T) {
		v, d := setup(t, sweepConfig())
		for i := 0; i < 20; i++ {
			if _, err := v.Create(fmt.Sprintf("sw/new/f%02d", i), payload(300, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		dirty := 0
		v.cache.mu.Lock()
		for _, p := range v.cache.pages {
			if p.dirty {
				dirty++
			}
		}
		v.cache.mu.Unlock()
		if dirty == 0 {
			t.Fatal("no dirty cached page to exercise")
		}
		st, err := checkSweptVerify(t, v, d, true)
		wantClean(t, st, err, files+20)
	})

	t.Run("ReadOnlyReplayOverlay", func(t *testing.T) {
		cfg := sweepConfig()
		v, d := setup(t, cfg)
		// Committed but never written home: a read-only mount sees these
		// only through the replayed images it overlays on the home copies.
		for i := 0; i < 30; i++ {
			if _, err := v.Create(fmt.Sprintf("sw/log/f%02d", i), payload(300, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		v.Crash()
		d.Revive()
		rv, _, err := MountReadOnly(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rv.Crash()
		swept := false
		for _, id := range absentNTPages(rv) {
			for j := 0; j < NTPageSectors; j++ {
				_, ok := rv.ntOverride[ntTarget(id, j)]
				swept = swept || ok
			}
		}
		if !swept {
			t.Fatal("no replayed name-table image falls on a page the walk sweeps")
		}
		st, err := checkSweptVerify(t, rv, d, true)
		wantClean(t, st, err, files+30)
	})

	t.Run("ReadOneCopy", func(t *testing.T) {
		cfg := sweepConfig()
		cfg.ReadOneCopy = true
		v, d := setup(t, cfg)
		st, err := checkSweptVerify(t, v, d, true)
		wantClean(t, st, err, files)
		// Copy A's damage falls back to copy B page by page.
		for i, id := range absentNTPages(v) {
			if i%4 == 0 {
				a, _ := v.lay.ntPageAddrs(id)
				d.CorruptSectors(a, 1)
			}
		}
		st, err = checkSweptVerify(t, v, d, false)
		wantClean(t, st, err, files)
	})

	t.Run("SingleCopyNT", func(t *testing.T) {
		cfg := sweepConfig()
		cfg.SingleCopyNT = true
		v, d := setup(t, cfg)
		st, err := checkSweptVerify(t, v, d, true)
		wantClean(t, st, err, files)
	})
}

// TestScrubSweep pins the scrub's name-table pass over coalesced sweeps: a
// clean pass reads each copy in full-size runs, and one decayed sector in
// the middle of a run is repaired exactly as a page-at-a-time pass would
// repair it.
func TestScrubSweep(t *testing.T) {
	setup := func() (*Volume, *disk.Disk) {
		v, d, _ := newTestVolumeWith(t, testConfig())
		populate(t, v, 60)
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
		return v, d
	}
	scrub := func(v *Volume, d *disk.Disk) ScrubStats {
		t.Helper()
		st, err := v.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// The clean twin: every count of a pass with nothing to repair.
	v, d := setup()
	var pass ScrubStats
	readsA, readsB := countNTReads(v, d, func() {
		if err := v.scrubNameTable(&pass); err != nil {
			t.Fatal(err)
		}
	})
	if max := (4*v.lay.ntPages + 63) / 64; readsA+readsB > 2*max {
		t.Fatalf("clean name-table pass issued %d+%d reads, want at most 2*%d", readsA, readsB, max)
	}
	clean := scrub(v, d)
	if clean.Repaired() != 0 || clean.Retired != 0 || len(clean.Problems) != 0 || clean.NTPagesChecked != v.lay.ntPages {
		t.Fatalf("clean scrub: %+v", clean)
	}

	// The same volume, built the same way, with one sector of copy A
	// decayed in the middle of the first run: page 5 of pages 0..15.
	v, d = setup()
	const id = 5
	a, _ := v.lay.ntPageAddrs(id)
	if buf, err := d.ReadSectors(a, NTPageSectors); err != nil || isVirgin(buf) {
		t.Fatalf("page %d is not an allocated page: %v", id, err)
	}
	d.CorruptSectors(a+2, 1)
	retriesBefore := v.Stats().Faults.ReadRetries
	st := scrub(v, d)

	want := clean
	want.NTRepaired = 1
	want.Elapsed = st.Elapsed
	if fmt.Sprint(st) != fmt.Sprint(want) {
		t.Fatalf("scrub with one decayed sector = %+v, want %+v", st, want)
	}
	// The failed run read is not a retry: the sector costs one bounded
	// retry chain when its page is re-read alone, and one more when the
	// anomaly path re-examines it under the cache lock — the same count
	// as reading a page at a time.
	if got, want := v.Stats().Faults.ReadRetries-retriesBefore, 2*v.cfg.readRetries(); got != want {
		t.Fatalf("read retries = %d, want %d", got, want)
	}
	checkNTCopies(t, v, d)
}
