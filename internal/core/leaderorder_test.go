package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/disk"
)

// ascendingRead is the reference leader reader: one ReadSectorsRetry per
// address, in ascending address order.
func ascendingRead(d *disk.Disk, addrs []int, retries int, fn func(i int, data []byte, retried int, err error)) {
	order := make([]int, len(addrs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return addrs[order[a]] < addrs[order[b]] })
	for _, i := range order {
		data, retried, err := disk.ReadSectorsRetry(d, addrs[i], 1, retries)
		fn(i, data, retried, err)
	}
}

// leaderPass is what one Verify pass showed: its report, the health budget
// it charged and the disk requests and sectors it read.
type leaderPass struct {
	st              VerifyStats
	budget          int
	reads, sectors  int
	leaderElapsedMs float64
}

func runVerifyPass(t *testing.T, v *Volume, d *disk.Disk, read sectorBatchReader) leaderPass {
	t.Helper()
	budget0, disk0 := v.Stats().Faults.ErrorBudget, d.Stats()
	v.mu.Lock()
	st, err := v.verifyTable(v.newWalkPager(), v.clk.Now(), read)
	v.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ds := d.Stats().Sub(disk0)
	return leaderPass{
		st:              st,
		budget:          v.Stats().Faults.ErrorBudget - budget0,
		reads:           ds.Reads,
		sectors:         ds.SectorsRead,
		leaderElapsedMs: float64(st.LeaderElapsed.Microseconds()) / 1000,
	}
}

// plantLeaderFaults creates files spread over several cylinders and damages
// some leaders three ways: decayed (garbage that is no leader), smashed (a
// well-formed leader with the wrong run table) and unreadable (a damaged
// sector). One more file keeps a pending leader, verified from memory.
func plantLeaderFaults(t *testing.T, v *Volume, d *disk.Disk) {
	t.Helper()
	var ents []Entry
	for i := 0; i < 300; i++ {
		f, err := v.Create(fmt.Sprintf("lo/d%d/f%03d", i%5, i), payload(300+(i*97)%6000, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		ents = append(ents, f.Entry())
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	cyls := map[int]bool{}
	for _, e := range ents {
		addr, _ := e.LeaderAddr()
		cyls[d.Geometry().Cylinder(addr)] = true
	}
	if len(cyls) < 3 {
		t.Fatalf("leaders on %d cylinders; the test wants several", len(cyls))
	}
	for i := 3; i < len(ents); i += 29 {
		addr, _ := ents[i].LeaderAddr()
		switch (i / 29) % 3 {
		case 0:
			d.SmashSector(addr, payload(disk.SectorSize, 0xA5), nil)
		case 1:
			wrong := ents[i]
			wrong.Runs = append([]alloc.Run(nil), wrong.Runs...)
			wrong.Runs[0].Len++
			d.SmashSector(addr, encodeLeader(&wrong), nil)
		case 2:
			d.CorruptSectors(addr, 1)
		}
	}
	f, err := v.Open(ents[1].Name, ents[1].Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Extend(2); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyLeaderOrderMatchesAscending: Verify's drive-order leader sweep
// reports exactly what the ascending-order sweep reports — problems, entry
// and leader counts, health-budget charge, disk requests and sectors — at
// widths 1 and 2, with decayed, smashed and unreadable leaders, and spends
// less time in the leader phase.
func TestVerifyLeaderOrderMatchesAscending(t *testing.T) {
	v, d, _ := newTestVolume(t)
	plantLeaderFaults(t, v, d)
	for _, workers := range []int{1, 2} {
		v.cfg.CheckWorkers = workers
		got := runVerifyPass(t, v, d, disk.ReadScattered)
		ref := runVerifyPass(t, v, d, ascendingRead)
		if !slices.Equal(got.st.Problems, ref.st.Problems) {
			t.Fatalf("workers=%d: problems\n%q\nascending order:\n%q", workers, got.st.Problems, ref.st.Problems)
		}
		if got.st.Entries != ref.st.Entries || got.st.Leaders != ref.st.Leaders ||
			got.st.LeadersPending != ref.st.LeadersPending || got.st.Symlinks != ref.st.Symlinks {
			t.Fatalf("workers=%d: counts %+v, ascending order %+v", workers, got.st, ref.st)
		}
		if got.budget != ref.budget || got.reads != ref.reads || got.sectors != ref.sectors {
			t.Fatalf("workers=%d: budget %d, reads %d, sectors %d; ascending order %d, %d, %d",
				workers, got.budget, got.reads, got.sectors, ref.budget, ref.reads, ref.sectors)
		}
		kinds := map[string]int{}
		for _, p := range got.st.Problems {
			for _, k := range []string{"is not a leader", "run-table checksum mismatch", "leader unreadable"} {
				if strings.Contains(p, k) {
					kinds[k]++
				}
			}
		}
		if len(kinds) != 3 || got.st.LeadersPending != 1 || got.budget == 0 {
			t.Fatalf("workers=%d: planted faults not all seen: kinds %v, pending %d, budget %d",
				workers, kinds, got.st.LeadersPending, got.budget)
		}
		if got.leaderElapsedMs >= ref.leaderElapsedMs {
			t.Fatalf("workers=%d: leader phase %.1f ms in drive order, %.1f ms ascending",
				workers, got.leaderElapsedMs, ref.leaderElapsedMs)
		}
		t.Logf("workers=%d: %d leaders, leader phase %.1f ms (ascending %.1f ms)",
			workers, got.st.Leaders, got.leaderElapsedMs, ref.leaderElapsedMs)
	}
}

// TestScrubLeaderPassRepairs: the leader pass checks every home leader once
// and repairs exactly the damaged ones through the re-examine path; a
// second pass is clean and Verify agrees.
func TestScrubLeaderPassRepairs(t *testing.T) {
	v, d, _ := newTestVolume(t)
	plantLeaderFaults(t, v, d)
	pre := verifyAt(t, v, 1)
	home := pre.Leaders - pre.LeadersPending
	bad := len(pre.Problems)
	faults0 := v.Stats().Faults
	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeadersChecked != home || st.LeadersRepaired != bad || len(st.Problems) != 0 {
		t.Fatalf("scrub checked %d leaders and repaired %d (problems %v); want %d and %d",
			st.LeadersChecked, st.LeadersRepaired, st.Problems, home, bad)
	}
	// Each unreadable leader spends its retry budget twice: once in the
	// drive-order read, once in the re-examining read.
	unreadable := 0
	for _, p := range pre.Problems {
		if strings.Contains(p, "leader unreadable") {
			unreadable++
		}
	}
	if got, want := v.Stats().Faults.ReadRetries-faults0.ReadRetries, 2*unreadable*v.cfg.readRetries(); got != want {
		t.Fatalf("scrub spent %d read retries, want %d", got, want)
	}
	st2, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Repaired() != 0 || st2.LeadersChecked != home {
		t.Fatalf("second scrub: %+v", st2)
	}
	if post := verifyAt(t, v, 2); len(post.Problems) != 0 {
		t.Fatalf("Verify after scrub: %v", post.Problems)
	}
}

// TestLeaderReadSeesPendingSnapshot forces the interleaving behind the
// "leader run-table checksum mismatch" read failure: a reader reads the
// leader sector while the leader's newest image is still pending, and a
// third-crossing flush writes that image home and drops it from the pending
// map before the reader checks. The reader must check against the pending
// image it saw before its read, not against the pre-flush platter image.
// Both read paths are covered: through the data cache and without it.
func TestLeaderReadSeesPendingSnapshot(t *testing.T) {
	for _, cachePages := range []int{0, -1} {
		t.Run(fmt.Sprintf("DataCachePages=%d", cachePages), func(t *testing.T) {
			cfg := testConfig()
			cfg.DataCachePages = cachePages
			v, d, _ := newTestVolumeWith(t, cfg)
			data := payload(5*disk.SectorSize, 3)
			f, err := v.Create("race/f", data)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Extend(3); err != nil {
				t.Fatal(err)
			}
			e := f.Entry()
			leaderAddr, _ := e.LeaderAddr()
			// The platter still holds the create-time leader; the pending
			// image carries the extended run table.
			g, err := v.Open("race/f", e.Version)
			if err != nil {
				t.Fatal(err)
			}
			var flushed []byte
			d.SetOpObserver(func(ev disk.OpEvent) {
				if ev.Write || ev.Addr != leaderAddr || flushed != nil {
					return
				}
				// The flush, between the read and the check: the image
				// leaves the pending map (it is written home below, once
				// the device is free).
				v.lmu.Lock()
				flushed = v.pendingLeaders[leaderAddr]
				delete(v.pendingLeaders, leaderAddr)
				delete(v.leaderThird, leaderAddr)
				v.lmu.Unlock()
			})
			got, rerr := g.ReadPages(0, 1)
			d.SetOpObserver(v.observeDiskOp)
			if flushed == nil {
				t.Fatal("the read did not piggyback the pending leader")
			}
			if err := d.WriteSectors(leaderAddr, flushed); err != nil {
				t.Fatal(err)
			}
			if rerr != nil {
				t.Fatalf("read racing the leader flush: %v", rerr)
			}
			if !bytes.Equal(got, data[:disk.SectorSize]) {
				t.Fatal("read returned the wrong bytes")
			}
			if st := verifyAt(t, v, 1); len(st.Problems) != 0 {
				t.Fatalf("Verify: %v", st.Problems)
			}
		})
	}
}

// TestWriteAtFailedReadWritesNothing: when the read half of a partial-page
// read-modify-write fails, WriteAt returns the error and leaves the page as
// it was, instead of writing zeros over its live bytes.
func TestWriteAtFailedReadWritesNothing(t *testing.T) {
	v, d, _ := newTestVolume(t)
	data := payload(3*disk.SectorSize, 9)
	f, err := v.Create("rmw/f", data)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Entry()
	leaderAddr, _ := e.LeaderAddr()
	page0, err := e.DataAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	page1, err := e.DataAddr(1)
	if err != nil {
		t.Fatal(err)
	}

	// A smashed leader: a fresh handle's first read fails its check.
	wrong := e
	wrong.Runs = append([]alloc.Run(nil), e.Runs...)
	wrong.Runs[0].Len++
	d.SmashSector(leaderAddr, encodeLeader(&wrong), nil)
	g, err := v.Open("rmw/f", e.Version)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.WriteAt([]byte("xyz"), 10); err == nil || n != 0 {
		t.Fatalf("WriteAt over a smashed leader = %d, %v; want 0 and an error", n, err)
	}
	if got, err := d.ReadSectors(page0, 1); err != nil || !bytes.Equal(got, data[:disk.SectorSize]) {
		t.Fatalf("page 0 changed by a failed WriteAt (err %v)", err)
	}
	d.SmashSector(leaderAddr, encodeLeader(&e), nil)

	// An unreadable edge sector: the page stays damaged, not rewritten.
	d.CorruptSectors(page1, 1)
	if n, err := f.WriteAt([]byte("abc"), disk.SectorSize+7); err == nil || n != 0 {
		t.Fatalf("WriteAt over an unreadable page = %d, %v; want 0 and an error", n, err)
	}
	if !d.IsDamaged(page1) {
		t.Fatal("a failed WriteAt rewrote the unreadable page")
	}
}
