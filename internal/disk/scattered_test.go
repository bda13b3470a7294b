package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// scatterAddrs writes a distinct image to each of n random sectors spread
// over the first few cylinders of d and returns their addresses (unsorted,
// duplicates removed).
func scatterAddrs(t *testing.T, d *Disk, seed int64, n, cylinders int) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perCyl := d.geom.SectorsPerTrack * d.geom.TracksPerCylinder
	seen := map[int]bool{}
	var addrs []int
	for len(addrs) < n {
		a := rng.Intn(cylinders * perCyl)
		if seen[a] {
			continue
		}
		seen[a] = true
		addrs = append(addrs, a)
		if err := d.WriteSectors(a, sectorImage(a)); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

func sectorImage(addr int) []byte {
	return bytes.Repeat([]byte{byte(addr), byte(addr >> 8), byte(addr >> 16)}, SectorSize/3+1)[:SectorSize]
}

// TestReadScatteredReadsEachOnce checks the reader's contract: one request
// and one fn call per address, each with that address's data, cylinders
// served in ascending order.
func TestReadScatteredReadsEachOnce(t *testing.T) {
	d, _ := newTestDisk(t)
	addrs := scatterAddrs(t, d, 7, 300, 6)
	before := d.Stats()
	calls := make([]int, len(addrs))
	lastCyl := -1
	ReadScattered(d, addrs, 3, func(i int, data []byte, retried int, err error) {
		calls[i]++
		if err != nil || retried != 0 {
			t.Fatalf("addr %d: err %v, retried %d", addrs[i], err, retried)
		}
		if !bytes.Equal(data, sectorImage(addrs[i])) {
			t.Fatalf("addr %d: wrong data", addrs[i])
		}
		cyl := d.geom.Cylinder(addrs[i])
		if cyl < lastCyl {
			t.Fatalf("cylinder %d served after cylinder %d", cyl, lastCyl)
		}
		lastCyl = cyl
	})
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("index %d (addr %d) called %d times", i, addrs[i], n)
		}
	}
	got := d.Stats().Sub(before)
	if got.Reads != len(addrs) || got.SectorsRead != len(addrs) {
		t.Fatalf("reads %d, sectors %d; want %d of each", got.Reads, got.SectorsRead, len(addrs))
	}
}

// TestReadScatteredOneCylinderInOneRevolution puts one sector on each track
// of a cylinder, at distinct rotational slots that fall as the track number
// rises — the worst case for ascending address order, which waits almost a
// whole revolution per track. A track switch inside a cylinder is free, so
// the drive order reads the lot within two revolutions.
func TestReadScatteredOneCylinderInOneRevolution(t *testing.T) {
	geom := SmallGeometry
	cyl := 3
	var addrs []int
	for track := 0; track < geom.TracksPerCylinder; track++ {
		slot := geom.SectorsPerTrack - 1 - 2*track
		addrs = append(addrs, (cyl*geom.TracksPerCylinder+track)*geom.SectorsPerTrack+slot)
	}
	elapsed := func(read func(d *Disk)) time.Duration {
		d, clk := newTestDisk(t)
		for _, a := range addrs {
			if err := d.WriteSectors(a, sectorImage(a)); err != nil {
				t.Fatal(err)
			}
		}
		// Park the head on the cylinder so only the order is measured.
		if _, err := d.ReadSectors(cyl*geom.TracksPerCylinder*geom.SectorsPerTrack, 1); err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		read(d)
		return clk.Now() - start
	}
	rev := DefaultParams.Revolution()
	drive := elapsed(func(d *Disk) {
		n := 0
		ReadScattered(d, addrs, 0, func(i int, data []byte, _ int, err error) {
			if err != nil || !bytes.Equal(data, sectorImage(addrs[i])) {
				t.Fatalf("addr %d: %v", addrs[i], err)
			}
			n++
		})
		if n != len(addrs) {
			t.Fatalf("%d calls for %d addresses", n, len(addrs))
		}
	})
	ascending := elapsed(func(d *Disk) {
		for _, a := range addrs {
			if _, _, err := ReadSectorsRetry(d, a, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if drive > 2*rev {
		t.Fatalf("drive order took %v for %d tracks, want within 2 revolutions (%v)", drive, len(addrs), 2*rev)
	}
	if ascending < time.Duration(len(addrs)-2)*rev*3/4 {
		t.Fatalf("ascending order took only %v: the layout no longer costs a revolution per track", ascending)
	}
	t.Logf("%d tracks: drive order %v, ascending order %v (revolution %v)", len(addrs), drive, ascending, rev)
}

// TestReadScatteredDamagedSector: a damaged sector gets its DamagedError
// after the retry budget, with the same retry count ReadSectorsRetry
// reports, and does not stop the other reads.
func TestReadScatteredDamagedSector(t *testing.T) {
	d, _ := newTestDisk(t)
	addrs := scatterAddrs(t, d, 11, 40, 3)
	bad := addrs[17]
	d.CorruptSectors(bad, 1)
	const retries = 3
	_, wantRetried, wantErr := ReadSectorsRetry(d, bad, 1, retries)
	if wantErr == nil {
		t.Fatal("corrupted sector read fine")
	}
	ok := 0
	ReadScattered(d, addrs, retries, func(i int, data []byte, retried int, err error) {
		if addrs[i] != bad {
			if err != nil {
				t.Fatalf("addr %d: %v", addrs[i], err)
			}
			ok++
			return
		}
		var de *DamagedError
		if !errors.As(err, &de) || de.Addr != bad || data != nil {
			t.Fatalf("damaged addr %d: data %v err %v, want DamagedError", bad, data != nil, err)
		}
		if retried != wantRetried || retried != retries {
			t.Fatalf("retried %d, ReadSectorsRetry spent %d (budget %d)", retried, wantRetried, retries)
		}
	})
	if ok != len(addrs)-1 {
		t.Fatalf("%d good reads, want %d", ok, len(addrs)-1)
	}
}

// TestReadScatteredDeterministic: the same disk state and clock give the
// same service order, and of two sectors with equal positioning time (the
// same slot on two tracks of one cylinder) the lower address goes first.
func TestReadScatteredDeterministic(t *testing.T) {
	order := func() []int {
		clk := sim.NewVirtualClock()
		d, err := New(SmallGeometry, DefaultParams, clk)
		if err != nil {
			t.Fatal(err)
		}
		addrs := scatterAddrs(t, d, 5, 200, 4)
		clk.Set(clk.Now() + 3*time.Millisecond)
		var got []int
		ReadScattered(d, addrs, 0, func(i int, _ []byte, _ int, _ error) { got = append(got, addrs[i]) })
		return got
	}
	a, b := order(), order()
	if len(a) != len(b) {
		t.Fatalf("runs served %d and %d reads", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("service order differs at %d: %d vs %d", i, a[i], b[i])
		}
	}

	d, _ := newTestDisk(t)
	spt := SmallGeometry.SectorsPerTrack
	lo, hi := 2*spt+5, 7*spt+5 // slot 5 on tracks 2 and 7 of cylinder 0
	var got []int
	ReadScattered(d, []int{hi, lo}, 0, func(i int, _ []byte, _ int, _ error) { got = append(got, i) })
	if len(got) != 2 || got[0] != 1 {
		t.Fatalf("tie served in index order %v, want the lower address (index 1) first", got)
	}
}
