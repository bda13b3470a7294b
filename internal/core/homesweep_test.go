package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
)

// stageSweepPage plants a dirty name-table page in the cache whose logged
// snapshot is filled with fill and whose current contents differ, with the
// given per-sector thirds.
func stageSweepPage(c *ntCache, id uint32, fill byte, thirds [NTPageSectors]int) {
	p := newNTPage(id, bytes.Repeat([]byte{^fill}, NTPageSize))
	p.logged = bytes.Repeat([]byte{fill}, NTPageSize)
	p.dirty = true
	p.lastThird = thirds
	c.mu.Lock()
	c.pages[id] = p
	c.mu.Unlock()
}

// sweepWrites runs a third flush and returns the disk writes it issued.
func sweepWrites(t *testing.T, v *Volume, d *disk.Disk, third int) []disk.OpEvent {
	t.Helper()
	var ops []disk.OpEvent
	d.SetOpObserver(func(e disk.OpEvent) {
		if e.Write {
			ops = append(ops, e)
		}
	})
	defer d.SetOpObserver(nil)
	if _, err := v.cache.flushThird(third); err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestNTHomeSweep pins the shape of the name-table home-write sweep: only
// the flushed third's sectors go home, from the logged snapshot, merged
// into address-ordered runs capped at MaxTransferSectors, all of copy A
// before any of copy B, and one copy under SingleCopyNT.
func TestNTHomeSweep(t *testing.T) {
	setup := func(single bool) (*Volume, *disk.Disk) {
		cfg := testConfig()
		cfg.Synchronous = true
		cfg.SingleCopyNT = single
		v, d, _ := newTestVolumeWith(t, cfg)
		// Leave no real page with a sector in any third.
		if err := v.cache.flushAll(); err != nil {
			t.Fatal(err)
		}
		return v, d
	}
	all := func(t int) [NTPageSectors]int { return [NTPageSectors]int{t, t, t, t} }
	// checkOrder asserts ascending runs over copy A, then over copy B.
	checkOrder := func(v *Volume, ops []disk.OpEvent) {
		t.Helper()
		prev, inB := -1, false
		for _, op := range ops {
			isB := op.Addr >= v.lay.ntB && v.lay.ntB != v.lay.ntA
			if inB && !isB {
				t.Fatalf("copy-A write at %d after a copy-B write: %+v", op.Addr, ops)
			}
			if isB && !inB {
				inB, prev = true, -1
			}
			if op.Addr <= prev {
				t.Fatalf("writes not in ascending address order: %+v", ops)
			}
			prev = op.Addr + op.Sectors - 1
		}
	}

	v, d := setup(false)
	// Three adjacent pages logged entirely in third 0: one 12-sector run
	// per copy.
	for id := uint32(100); id < 103; id++ {
		stageSweepPage(v.cache, id, byte(id), all(0))
	}
	before := v.cache.stats().HomeWrites
	ops := sweepWrites(t, v, d, 0)
	if len(ops) != 2 || ops[0].Sectors != 12 || ops[1].Sectors != 12 {
		t.Fatalf("three adjacent pages: want 2 writes of 12 sectors, got %+v", ops)
	}
	checkOrder(v, ops)
	if got := v.cache.stats().HomeWrites - before; got != 24 {
		t.Fatalf("HomeWrites counted %d, want 24 (sectors per copy)", got)
	}

	// A page split across thirds: only third 1's sectors go home, with the
	// logged bytes, while the third-2 sectors keep their old home contents.
	stageSweepPage(v.cache, 120, 0x5a, [NTPageSectors]int{1, 1, 2, 2})
	a, b := v.lay.ntPageAddrs(120)
	old, err := d.ReadSectors(a, NTPageSectors)
	if err != nil {
		t.Fatal(err)
	}
	ops = sweepWrites(t, v, d, 1)
	if len(ops) != 2 || ops[0].Addr != a || ops[1].Addr != b || ops[0].Sectors != 2 {
		t.Fatalf("split page: want sectors 0-1 of each copy, got %+v", ops)
	}
	for _, base := range []int{a, b} {
		got, err := d.ReadSectors(base, NTPageSectors)
		if err != nil {
			t.Fatal(err)
		}
		half := 2 * disk.SectorSize
		if !bytes.Equal(got[:half], bytes.Repeat([]byte{0x5a}, half)) {
			t.Fatalf("copy at %d: flushed sectors not written from the logged snapshot", base)
		}
		if base == a && !bytes.Equal(got[half:], old[half:]) {
			t.Fatal("sectors logged in another third were written home")
		}
	}
	if p := v.cache.pages[120]; p.lastThird != [NTPageSectors]int{-1, -1, 2, 2} {
		t.Fatalf("lastThird after flush = %v", p.lastThird)
	}

	// Twenty adjacent pages (80 sectors) split at MaxTransferSectors.
	for id := uint32(140); id < 160; id++ {
		stageSweepPage(v.cache, id, byte(id), all(2))
	}
	ops = sweepWrites(t, v, d, 2)
	var sizes []int
	for _, op := range ops {
		sizes = append(sizes, op.Sectors)
	}
	if fmt.Sprint(sizes) != fmt.Sprint([]int{2, MaxTransferSectors, 80 - MaxTransferSectors, 2, MaxTransferSectors, 80 - MaxTransferSectors}) {
		t.Fatalf("run sizes %v: want page 120's two sectors, then 80 split at %d, per copy", sizes, MaxTransferSectors)
	}
	checkOrder(v, ops)

	// SingleCopyNT writes one copy.
	v, d = setup(true)
	for id := uint32(100); id < 103; id++ {
		stageSweepPage(v.cache, id, byte(id), all(0))
	}
	if ops := sweepWrites(t, v, d, 0); len(ops) != 1 || ops[0].Sectors != 12 {
		t.Fatalf("SingleCopyNT: want one 12-sector write, got %+v", ops)
	}
}

// homeSweepWorkload runs a seeded create/touch/delete mix until the log has
// crossed at least minCrossings thirds, forcing now and then, and returns
// the files whose last change was forced.
func homeSweepWorkload(t *testing.T, v *Volume, seed int64, minCrossings int) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := map[string][]byte{}
	forced := map[string][]byte{}
	var names []string
	for i := 0; v.Log().Stats().ThirdCrossings < minCrossings; i++ {
		if i > 20000 {
			t.Fatalf("only %d third crossings after %d ops", v.Log().Stats().ThirdCrossings, i)
		}
		switch r := rng.Intn(10); {
		case r < 6 || len(names) == 0:
			name := fmt.Sprintf("d%02d/f%05d", rng.Intn(16), i)
			data := payload(50+rng.Intn(400), byte(i))
			if _, err := v.Create(name, data); err != nil {
				return forced
			}
			live[name] = data
			names = append(names, name)
		case r < 8:
			if err := v.Touch(names[rng.Intn(len(names))], 0); err != nil {
				return forced
			}
		default:
			k := rng.Intn(len(names))
			if err := v.Delete(names[k], 0); err != nil {
				return forced
			}
			delete(live, names[k])
			delete(forced, names[k])
			names[k] = names[len(names)-1]
			names = names[:len(names)-1]
		}
		if i%16 == 15 {
			if err := v.Force(); err != nil {
				return forced
			}
			for name, data := range live {
				forced[name] = data
			}
		}
	}
	return forced
}

// TestHomeWriteOrderDeterministic runs one seeded workload across several
// third crossings, crashes and remounts, twice on fresh virtual clocks:
// home writes must not depend on map iteration order, so simulated time,
// disk counters and recovery time come out identical.
func TestHomeWriteOrderDeterministic(t *testing.T) {
	run := func() (string, disk.Stats, MountReport) {
		v, d, clk := newTestVolume(t)
		homeSweepWorkload(t, v, 7, 12)
		v.Crash()
		d.Revive()
		_, ms, err := Mount(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return clk.Now().String(), d.Stats(), ms
	}
	now1, ds1, ms1 := run()
	now2, ds2, ms2 := run()
	if now1 != now2 || ds1 != ds2 || ms1.Elapsed != ms2.Elapsed {
		t.Fatalf("two runs of one seed differ:\n clock %s vs %s\n disk %+v\n vs   %+v\n mount %v vs %v",
			now1, now2, ds1, ds2, ms1.Elapsed, ms2.Elapsed)
	}
}

// TestTornHomeRunRecovers tears a coalesced third-flush run on copy A —
// half its sectors land, the sector at the break is damaged, the device
// halts — and checks that the log redoes it: the remounted volume verifies
// clean and every forced file reads back intact.
func TestTornHomeRunRecovers(t *testing.T) {
	v, d, _ := newTestVolume(t)
	ntEnd := v.lay.ntA + v.lay.ntPages*NTPageSectors
	torn := false
	d.SetWriteFault(func(addr, n int) *disk.WriteFault {
		if torn || n < 2 || addr < v.lay.ntA || addr >= ntEnd {
			return nil
		}
		torn = true
		return &disk.WriteFault{Persist: n / 2, DamageAtBreak: true, Halt: true}
	})
	forced := homeSweepWorkload(t, v, 3, 12)
	if !torn || len(forced) == 0 {
		t.Fatalf("fault fired: %v, forced files: %d; the test needs both", torn, len(forced))
	}
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := v2.Verify()
	if err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify after torn home run: %v %v", err, vs.Problems)
	}
	for name, data := range forced {
		f, err := v2.Open(name, 0)
		if err != nil {
			t.Fatalf("forced file %s lost: %v", name, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("forced file %s corrupted: %v", name, err)
		}
	}
}
